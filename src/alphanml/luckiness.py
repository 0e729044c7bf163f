"""Luckiness variants: tilting the regret benchmark by a Dirichlet density.

A luckiness function reweights the maximized likelihood by a Dirichlet(b)
density before normalization, which turns NML into luckiness NML and the
alpha family into its tilted counterpart; every measure here takes b.
Conditional NML given past counts is luckiness NML with b = past counts + 1
(``tests/test_luckiness.py::TestConditionalIdentity``).

Regret measures are the plain ones on the plain drivers: a worst-case scan
where the benchmark is the tilted supremum, the order-one radius's
quadrature against the luckiness density, an alpha-regret integrated
against the tilted prior (parameters alpha*(b-1)+1), and the alpha-regret's
supremum with ln pi(theta) added, which recovers the worst case as alpha
grows. The b = (1, ..., 1) luckiness is the constant density on the
simplex, under which every measure collapses to its plain counterpart (for
m = 2, where the constant is 1).
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import NumericError, UnsupportedError
from .numerics import accept_quadrature
from .predictors import DirichletParams, LuckinessNML, PredictorSpec, tilted_params
from .regret import (
    JointFn,
    DirichletDensity,
    RegretReport,
    TypeClassTable,
    _average_kl,
    _check_order,
    _theta_sup,
    _worst_case_scan,
    dirichlet_quadrature,
)


def worst_case_luckiness_regret(
    predictor: PredictorSpec | JointFn,
    b: DirichletParams,
    n: int,
    m: int,
) -> RegretReport:
    """Max over counts of ln(tilted supremum) - ln(predictor joint).

    For the luckiness NML predictor itself this equals the log of the tilted
    Shtarkov sum, by the same cancellation as in the plain case.
    """
    if b.m != m:
        raise ValueError(f"luckiness has m={b.m}, got m={m}")
    return _worst_case_scan("luckiness_worst_case", LuckinessNML(b), predictor, n, m)


def average_luckiness_regret(
    predictor: PredictorSpec | JointFn,
    b: DirichletParams,
    n: int,
    m: int = 2,
) -> float:
    """E over theta ~ Dirichlet(b) of KL(p_theta || predictor), by quadrature.

    The Dirichlet(b) mixture minimizes this among all predictors, with the
    excess of any other predictor equal to KL(mixture || predictor) on
    sequence space; for that mixture it is the order-one information
    radius ``sibson_mi_alpha(n, 2, 1.0, b)``. Supported for m = 2.
    """
    if m != 2 or b.m != 2:
        raise UnsupportedError("average luckiness regret is quadrature-based and supports m = 2 only")
    return _average_kl(predictor, b, n, "the average luckiness regret")


def luckiness_alpha_regret(
    predictor: PredictorSpec | JointFn,
    b: DirichletParams,
    n: int,
    alpha: float,
    m: int = 2,
) -> float:
    """Tilted alpha-regret: (1/(alpha-1)) ln E_tilted[sum_x p^alpha q^(1-alpha)].

    The expectation runs over theta ~ the tilted prior (parameters
    alpha*(b-1)+1). The tilted alpha predictor minimizes it, and its value
    equals the information radius of order alpha under the tilted prior.
    Supported for m = 2 and alpha > 1.
    """
    _check_order(alpha, above_one=True)
    if m != 2 or b.m != 2:
        raise UnsupportedError("luckiness alpha-regret is quadrature-based and supports m = 2 only")
    tilt = tilted_params(alpha, b)
    table = TypeClassTable(n, m, predictor)

    def weighted(pdfs: list[float], thetas: np.ndarray) -> list[float]:
        his, totals = table._renyi_sums(thetas, alpha)
        values = []
        for pdf, hi, total, theta_1 in zip(pdfs, his, totals, thetas[:, 0].tolist()):
            # q = 0 on a class (hi = +inf) or a nan cell gives a nan total: a nan node, which accept_quadrature rejects
            try:
                values.append(pdf * math.exp(hi) * total)
            except OverflowError:  # a finite hi above the float range: e^hi is no float
                raise NumericError(
                    f"the tilted alpha-regret's integrand exceeds the float range: its log is {hi:.6g} "
                    f"at theta_1 = {theta_1:.6g}"
                ) from None
        return values

    value, err = dirichlet_quadrature(tilt, weighted)
    # a relative tolerance of 1e-7; the log below needs a positive value, and a nan bound fails the acceptance test
    bound = 1e-7 * max(value, 1e-300) if value > 0.0 else math.nan
    return math.log(accept_quadrature(value, err, bound, "the tilted alpha-regret")) / (alpha - 1.0)


def luckiness_alpha_regret_supform(
    predictor: PredictorSpec | JointFn,
    b: DirichletParams,
    n: int,
    m: int,
    alpha: float,
) -> RegretReport:
    """sup over theta of [ln pi(theta) + D_alpha(p_theta || predictor)], pi the Dirichlet(b) density.

    The alpha -> 1 path maximizes ln pi(theta) + KL; as alpha grows the
    value approaches the worst-case luckiness regret. Under the constant
    m = 2 luckiness b = (1, 1) this is exactly the plain alpha-regret.
    Supported for m in {2, 3}, checked before any class table is built.
    """
    if b.m != m:
        raise ValueError(f"luckiness has m={b.m}, got m={m}")
    return _theta_sup("luckiness_alpha_sup", predictor, n, m, alpha, DirichletDensity(b))
