"""Luckiness variants: tilting the regret benchmark by a Dirichlet density.

A luckiness function reweights the maximized likelihood by a Dirichlet(b)
density before normalization, which turns NML into luckiness NML and the
alpha family into its tilted counterpart. Conditioning on past observations
is the special case b = past counts + 1 (the likelihood of the past acts as
the tilt), so conditional predictors reduce exactly to explicit ones.

Regret measures mirror the plain ones: a worst-case scan where the
benchmark is the tilted supremum, an average regret integrated against the
luckiness density, an alpha-regret integrated against the tilted prior
(parameters alpha*(b-1)+1), and a supremum form sup_theta [ln pi(theta) +
D_alpha(p_theta || predictor)] that recovers the worst case as alpha grows.
The b = (1, ..., 1) luckiness is the constant density on the simplex, under
which every measure collapses to its plain counterpart (for m = 2, where
the constant is 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import UnsupportedError
from .numerics import accept_quadrature
from .predictors import DirichletParams, LuckinessNML, PredictorSpec, tilted_params
from .regret import (
    JointFn,
    DirichletDensity,
    RegretReport,
    TypeClassTable,
    _check_order,
    _worst_case_scan,
    dirichlet_quadrature,
    maximize_on_simplex,
)
from .typeclass import CountVector


@dataclass(frozen=True)
class LuckinessFunction:
    """A Dirichlet(b) tilt of the likelihood, with its origin recorded.

    ``origin`` is "explicit" for a user-chosen b and "conditional" when b
    was derived from past observations as past counts + 1.
    """

    b: DirichletParams
    origin: str = "explicit"
    past: CountVector | None = None

    @classmethod
    def explicit(cls, b: DirichletParams) -> "LuckinessFunction":
        return cls(b=b)

    @classmethod
    def from_past(cls, past_counts: CountVector) -> "LuckinessFunction":
        b = DirichletParams(tuple(c + 1.0 for c in past_counts.counts))
        return cls(b=b, origin="conditional", past=past_counts)


def _as_luckiness(pi: LuckinessFunction | DirichletParams) -> LuckinessFunction:
    if isinstance(pi, LuckinessFunction):
        return pi
    if isinstance(pi, DirichletParams):
        return LuckinessFunction(b=pi)
    raise TypeError(f"pi must be a LuckinessFunction or DirichletParams, got {pi!r}")


def worst_case_luckiness_regret(
    predictor: PredictorSpec | JointFn,
    pi: LuckinessFunction | DirichletParams,
    n: int,
    m: int,
) -> RegretReport:
    """Max over counts of ln(tilted supremum) - ln(predictor joint).

    For the luckiness NML predictor itself this equals the log of the tilted
    Shtarkov sum, by the same cancellation as in the plain case.
    """
    lf = _as_luckiness(pi)
    if lf.b.m != m:
        raise ValueError(f"luckiness has m={lf.b.m}, got m={m}")
    return _worst_case_scan("luckiness_worst_case", LuckinessNML(lf.b), predictor, n, m)


def average_luckiness_regret(
    predictor: PredictorSpec | JointFn,
    pi: LuckinessFunction | DirichletParams,
    n: int,
    m: int = 2,
) -> float:
    """E over theta ~ Dirichlet(b) of KL(p_theta || predictor), by quadrature.

    The Dirichlet(b) mixture minimizes this among all predictors, with the
    excess of any other predictor equal to KL(mixture || predictor) on
    sequence space. Supported for m = 2.
    """
    lf = _as_luckiness(pi)
    if m != 2 or lf.b.m != 2:
        raise UnsupportedError("average luckiness regret is quadrature-based and supports m = 2 only")
    table = TypeClassTable(n, m, predictor)
    value, err = dirichlet_quadrature(lf.b, lambda pdf, theta: pdf * float(table.kl_values(theta)[0]))
    return accept_quadrature(value, err, 1e-8, "the average luckiness regret")


def luckiness_alpha_regret(
    predictor: PredictorSpec | JointFn,
    pi: LuckinessFunction | DirichletParams,
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
    lf = _as_luckiness(pi)
    if m != 2 or lf.b.m != 2:
        raise UnsupportedError("luckiness alpha-regret is quadrature-based and supports m = 2 only")
    tilt = tilted_params(alpha, lf.b)
    table = TypeClassTable(n, m, predictor)

    def weighted(pdf: float, theta: np.ndarray) -> float:
        hi, total = table.renyi_sum(theta, alpha)
        # q = 0 on a class (hi = +inf) or a nan cell gives a nan total: a nan node, which accept_quadrature rejects
        return pdf * math.exp(hi) * total

    value, err = dirichlet_quadrature(tilt, weighted)
    # a relative tolerance of 1e-7; the log below needs a positive value, and a nan bound fails the acceptance test
    bound = 1e-7 * max(value, 1e-300) if value > 0.0 else math.nan
    return math.log(accept_quadrature(value, err, bound, "the tilted alpha-regret")) / (alpha - 1.0)


def luckiness_alpha_regret_supform(
    predictor: PredictorSpec | JointFn,
    pi: LuckinessFunction | DirichletParams,
    n: int,
    m: int,
    alpha: float,
) -> RegretReport:
    """sup over theta of [ln pi(theta) + D_alpha(p_theta || predictor)].

    The alpha -> 1 path maximizes ln pi(theta) + KL; as alpha grows the
    value approaches the worst-case luckiness regret. Under the constant
    m = 2 luckiness b = (1, 1) this is exactly the plain alpha-regret.
    """
    _check_order(alpha)
    lf = _as_luckiness(pi)
    if lf.b.m != m:
        raise ValueError(f"luckiness has m={lf.b.m}, got m={m}")
    table = TypeClassTable(n, m, predictor)
    density = DirichletDensity(lf.b)

    def objective(thetas: np.ndarray) -> np.ndarray:
        return density.log_pdf(thetas) + table.renyi_values(thetas, alpha)

    point, value = maximize_on_simplex(m, objective)
    return RegretReport(
        kind="luckiness_alpha_sup",
        value_nats=value,
        n=n,
        m=m,
        predictor=predictor,
        alpha=alpha,
        maximizer=point,
    )
