"""Luckiness variants: tilting the regret benchmark by a Dirichlet density.

A luckiness function reweights the maximized likelihood by a Dirichlet(b)
density before normalization, which turns NML into luckiness NML and the
alpha family into its tilted counterpart; every measure here takes b.
Conditional NML given past counts is luckiness NML with b = past counts + 1
(``tests/test_luckiness.py::TestConditionalIdentity``).

Regret measures are the plain ones on ``regret``'s drivers, and nothing
here evaluates over theta itself: a worst-case scan where the benchmark is
the tilted supremum, the Dirichlet average of KL against the luckiness
density, the Dirichlet average of sum_x p_theta^alpha q^(1-alpha) against
the tilted prior (parameters alpha*(b-1)+1), and the alpha-regret's
supremum with ln pi(theta) = ``b.log_pdf`` added, which recovers the worst
case as alpha grows. The two averages are exact sums over the type classes
(``regret._dirichlet_average``), at any m. The b = (1, ..., 1) luckiness
is the constant density on the simplex, under which every measure
collapses to its plain counterpart (for m = 2, where the constant is 1).
"""

from __future__ import annotations

from .predictors import DirichletParams, LuckinessNML, PredictorSpec, _check_alphabet, _check_order, tilted_params
from .regret import JointFn, RegretReport, _dirichlet_average, _theta_sup, _worst_case_scan


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
    _check_alphabet(b, m, "luckiness")
    return _worst_case_scan("luckiness_worst_case", LuckinessNML(b), predictor, n, m)


def average_luckiness_regret(
    predictor: PredictorSpec | JointFn,
    b: DirichletParams,
    n: int,
    m: int = 2,
) -> float:
    """E over theta ~ Dirichlet(b) of KL(p_theta || predictor), an exact sum over the type classes.

    The Dirichlet(b) mixture minimizes this among all predictors, with the
    excess of any other predictor equal to KL(mixture || predictor) on
    sequence space; for that mixture it is the order-one information
    radius ``sibson_mi_alpha(n, m, 1.0, b)``.
    """
    _check_alphabet(b, m, "luckiness")
    return _dirichlet_average(predictor, b, n, 1.0)


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
    equals the information radius of order alpha under the tilted prior
    (Theorem 5). Defined for alpha > 1; an exact sum over the type classes.
    """
    _check_order(alpha, above_one=True)
    _check_alphabet(b, m, "luckiness")
    return _dirichlet_average(predictor, tilted_params(alpha, b), n, alpha)


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
    _check_alphabet(b, m, "luckiness")
    return _theta_sup("luckiness_alpha_sup", predictor, n, m, alpha, b)
