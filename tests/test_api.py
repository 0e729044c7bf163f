"""The public names, signatures that carry no keyword that changes nothing, and the argument contract."""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

import alphanml
from alphanml import (
    AlphaNML,
    CountVector,
    DirichletParams,
    LuckinessAlphaNML,
    LuckinessNML,
    NML,
    alpha_regret,
    asymptotic_rmax,
    average_luckiness_regret,
    conditional_distribution,
    count_vector_ranks,
    cumulative_log_loss,
    kt,
    log_dirichlet_alpha_integral,
    log_joints,
    log_multiplicities,
    log_normalizer,
    log_numerators,
    luckiness_alpha_regret,
    luckiness_alpha_regret_supform,
    regret,
    renyi_divergence_vs_predictor,
    sibson_mi_alpha,
    w_alpha_closed,
    w_alpha_direct,
    worst_case_luckiness_regret,
    worst_case_regret,
)

# every public name; a name joins or leaves the package only with an edit here
PUBLIC_NAMES = [
    "AlphaNML",
    "CountVector",
    "DirichletParams",
    "InfeasibleModelError",
    "LOG_TWO",
    "LuckinessAlphaNML",
    "LuckinessNML",
    "Mixture",
    "NML",
    "NormalizerCache",
    "NumericError",
    "OracleConfig",
    "PredictorSpec",
    "RegretReport",
    "SimplexPoint",
    "TypeClassTable",
    "UnsupportedError",
    "alpha_regret",
    "alpha_split_check",
    "asymptotic_min_alpha_regret",
    "asymptotic_rmax",
    "average_luckiness_regret",
    "average_regret",
    "brute_sequence_sum",
    "brute_simplex_max",
    "conditional_distribution",
    "count_vector_ranks",
    "count_vector_total",
    "count_vectors",
    "cumulative_log_loss",
    "figure1_table",
    "infinity_split_check",
    "kt",
    "laplace",
    "log_dirichlet_alpha_integral",
    "log_gamma",
    "log_joint",
    "log_luckiness_supremum",
    "log_joints",
    "log_ml",
    "log_multinomial",
    "log_multiplicities",
    "log_multivariate_beta",
    "log_normalizer",
    "log_numerators",
    "log_sum_exp",
    "log_sum_exp_array",
    "luckiness_alpha_regret",
    "luckiness_alpha_regret_supform",
    "predictor_kl",
    "renyi_divergence_vs_predictor",
    "sequence_counts",
    "sequential_mixture_log_prob",
    "sibson_mi_alpha",
    "sibson_mi_infinity",
    "tilted_params",
    "w_alpha_closed",
    "w_alpha_direct",
    "worst_case_luckiness_regret",
    "worst_case_regret",
    "xlogy",
]


def test_all_is_pinned():
    assert alphanml.__all__ == PUBLIC_NAMES
    assert all(hasattr(alphanml, name) for name in PUBLIC_NAMES)


def _parameters(obj) -> set[str]:
    try:
        return set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):  # builtin constructors, e.g. of the exception bases
        return set()


def _public_callables():
    for name in alphanml.__all__:
        obj = getattr(alphanml, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_threads_is_accepted_only_by_log_normalizer():
    with_threads = [name for name, obj in _public_callables() if "threads" in _parameters(obj)]
    assert with_threads == ["log_normalizer"]


def test_cache_is_accepted_only_by_log_normalizer():
    with_cache = [name for name, obj in _public_callables() if "cache" in _parameters(obj)]
    assert with_cache == ["log_normalizer"]


@pytest.mark.parametrize(
    "function, dropped",
    [
        (regret.joint_values, {"cache", "complete"}),
        (alphanml.average_luckiness_regret, {"cache", "tol"}),
        (alphanml.luckiness_alpha_regret, {"cache", "tol"}),
        (log_joints, {"complete", "log_mult"}),
    ],
)
def test_constant_keywords_are_gone(function, dropped):
    assert not _parameters(function) & dropped


def test_scan_signatures_take_no_arrays_of_classes():
    """A scan passes its class table; the public joints take only a spec and counts."""
    assert list(inspect.signature(log_joints).parameters) == ["spec", "counts"]
    assert list(inspect.signature(regret.joint_values).parameters) == ["predictor", "table"]


def test_log_normalizer_keeps_threads_as_a_no_op():
    spec = alphanml.NML()
    assert log_normalizer(spec, 9, 3, cache=None, threads=4) == log_normalizer(spec, 9, 3, cache=None)


J2, J3, U2, B2 = (DirichletParams(a) for a in ((0.5, 0.5), (0.5, 0.5, 0.5), (1.0, 1.0), (2.0, 2.0)))
NAN, INF = math.nan, math.inf
SHAPE = r"^counts: each call takes a \(K, m\) array of count vectors, got shape "
ORDER = r"^alpha must be >= 1, got "
HORIZON = r"^horizon must be a whole number, got "
KINDS = {"kt(2)": kt(2), "AlphaNML(2, J2)": AlphaNML(2.0, J2), "NML()": NML(), "LuckinessNML(U2)": LuckinessNML(U2),
         "LuckinessAlphaNML(2, B2)": LuckinessAlphaNML(2.0, B2)}


def _validated_n(n: int):
    """A report whose n is the validated int, not the argument as passed."""
    return lambda report: type(report.n) is int and report.n == n and type(report.m) is int


# (call, outcome): a regex that the message of the ValueError raised must match (library exceptions are
# ValueErrors, and each message names the argument), or a check of the value returned
CONTRACT = {
    "log_numerators(kt(2), [1, 2])": (lambda: log_numerators(kt(2), [1, 2]), SHAPE + r"\(2,\)$"),
    "log_joints(kt(2), [1, 2])": (lambda: log_joints(kt(2), [1, 2]), SHAPE),
    "log_multiplicities([1, 2])": (lambda: log_multiplicities([1, 2]), SHAPE),
    "count_vector_ranks([1, 2])": (lambda: count_vector_ranks([1, 2]), SHAPE),
    "log_numerators(kt(2), 3)": (lambda: log_numerators(kt(2), 3), SHAPE + r"\(\)$"),
    "log_multiplicities([[3]])": (lambda: log_multiplicities([[3]]), lambda v: v.tolist() == [0.0]),
    "log_multiplicities([[3], [0]])": (lambda: log_multiplicities([[3], [0]]), lambda v: v.tolist() == [0.0, 0.0]),
    "log_numerators(kt(2), [[3]])": (lambda: log_numerators(kt(2), [[3]]), r"alphabet of size 2, got m=1$"),
    **{
        f"log_joints({name}, no rows)": (lambda spec=spec: log_joints(spec, np.zeros((0, 2), int)),
                                         lambda v: v.shape == (0,))
        for name, spec in KINDS.items()
    },
    "worst_case_regret(kt(2), 2.5, 2)": (lambda: worst_case_regret(kt(2), 2.5, 2),
                                         r"^n must be a non-negative integer, got 2.5$"),
    "worst_case_regret(kt(2), nan, 2)": (lambda: worst_case_regret(kt(2), NAN, 2), r"^n must be .*, got nan$"),
    "worst_case_regret(kt(2), True, 2)": (lambda: worst_case_regret(kt(2), True, 2), _validated_n(1)),
    "worst_case_regret(kt(2), 5.0, 2.0)": (lambda: worst_case_regret(kt(2), 5.0, 2.0), _validated_n(5)),
    "worst_case_luckiness_regret(kt(2), U2, 2.5, 2)": (lambda: worst_case_luckiness_regret(kt(2), U2, 2.5, 2),
                                                       r"^n must be .*, got 2.5$"),
    "alpha_regret(kt(2), 2.5, 2, 2.0)": (lambda: alpha_regret(kt(2), 2.5, 2, 2.0), r"^n must be .*, got 2.5$"),
    "alpha_regret(kt(2), nan, 2, 2.0)": (lambda: alpha_regret(kt(2), NAN, 2, 2.0), r"^n must be .*, got nan$"),
    "alpha_regret(kt(2), True, 2, 2.0)": (lambda: alpha_regret(kt(2), True, 2, 2.0), _validated_n(1)),
    "luckiness_alpha_regret_supform(kt(2), U2, True, 2, 2.0)": (
        lambda: luckiness_alpha_regret_supform(kt(2), U2, True, 2, 2.0), _validated_n(1)),
    "log_normalizer(kt(2), 2.5, 2)": (lambda: log_normalizer(kt(2), 2.5, 2), r"^n must be .*, got 2.5$"),
    "sibson_mi_alpha(nan, 2, 2.0, J2)": (lambda: sibson_mi_alpha(NAN, 2, 2.0, J2), r"^n must be .*, got nan$"),
    "conditional_distribution(kt(2), (1, 1), 3.5)": (
        lambda: conditional_distribution(kt(2), CountVector((1, 1)), 3.5), HORIZON + r"3.5$"),
    "conditional_distribution(NML(), (1, 1), nan)": (
        lambda: conditional_distribution(NML(), CountVector((1, 1)), NAN), HORIZON + r"nan$"),
    "cumulative_log_loss(kt(2), [1, 2], 2, horizon=2.5)": (
        lambda: cumulative_log_loss(kt(2), [1, 2], 2, horizon=2.5), HORIZON + r"2.5$"),
    "cumulative_log_loss(kt(2), [1, 2], 2, horizon=4.0)": (
        lambda: cumulative_log_loss(kt(2), [1, 2], 2, horizon=4.0),
        lambda v: v == cumulative_log_loss(kt(2), [1, 2], 2, horizon=4)),
    "AlphaNML(0.5, J2)": (lambda: AlphaNML(0.5, J2), ORDER + r"0.5$"),
    "AlphaNML(inf, J2)": (lambda: AlphaNML(INF, J2), r"^alpha must be finite, got inf$"),
    "LuckinessAlphaNML(nan, U2)": (lambda: LuckinessAlphaNML(NAN, U2), ORDER + r"nan$"),
    "alpha_regret(kt(2), 3, 2, 0.5)": (lambda: alpha_regret(kt(2), 3, 2, 0.5), ORDER + r"0.5$"),
    "alpha_regret(kt(2), 3, 2, inf)": (lambda: alpha_regret(kt(2), 3, 2, INF), r"^alpha must be finite, got inf$"),
    "sibson_mi_alpha(3, 2, nan, J2)": (lambda: sibson_mi_alpha(3, 2, NAN, J2), ORDER + r"nan$"),
    "w_alpha_direct(3, 2, 0.5, J2)": (lambda: w_alpha_direct(3, 2, 0.5, J2), ORDER + r"0.5$"),
    "w_alpha_closed(3, 2, inf)": (lambda: w_alpha_closed(3, 2, INF), r"^alpha must be finite, got inf$"),
    "asymptotic_rmax(10, 2, 0.5)": (lambda: asymptotic_rmax(10, 2, 0.5), ORDER + r"0.5$"),
    "renyi_divergence_vs_predictor((0.5, 0.5), kt(2), 3, nan)": (
        lambda: renyi_divergence_vs_predictor((0.5, 0.5), kt(2), 3, NAN), ORDER + r"nan$"),
    "log_dirichlet_alpha_integral((1, 2), 0.5, J2)": (
        lambda: log_dirichlet_alpha_integral(CountVector((1, 2)), 0.5, J2), ORDER + r"0.5$"),
    "luckiness_alpha_regret(kt(2), B2, 3, 0.5)": (lambda: luckiness_alpha_regret(kt(2), B2, 3, 0.5),
                                                  r"^alpha must be > 1, got 0.5$"),
    "sibson_mi_alpha(3, 2, 2.0, J3)": (lambda: sibson_mi_alpha(3, 2, 2.0, J3), r"^prior has m=3, got m=2$"),
    "w_alpha_direct(3, 2, 2.0, J3)": (lambda: w_alpha_direct(3, 2, 2.0, J3), r"^prior has m=3, got m=2$"),
    "w_alpha_closed(3, 2, 2.0, J3)": (lambda: w_alpha_closed(3, 2, 2.0, J3), r"Jeffreys prior only$"),
    "log_dirichlet_alpha_integral((1, 2), 2.0, J3)": (
        lambda: log_dirichlet_alpha_integral(CountVector((1, 2)), 2.0, J3), r"^counts have m=2, prior has m=3$"),
    "log_normalizer(AlphaNML(2.0, J3), 3, 2)": (lambda: log_normalizer(AlphaNML(2.0, J3), 3, 2),
                                                r"^spec is over an alphabet of size 3, got m=2$"),
    "worst_case_luckiness_regret(kt(2), J3, 3, 2)": (lambda: worst_case_luckiness_regret(kt(2), J3, 3, 2),
                                                     r"^luckiness has m=3, got m=2$"),
    "average_luckiness_regret(kt(2), J3, 3, 2)": (lambda: average_luckiness_regret(kt(2), J3, 3, 2),
                                                  r"^luckiness has m=3, got m=2$"),
    "luckiness_alpha_regret(kt(2), (2, 2, 2), 3, 2.0, 2)": (
        lambda: luckiness_alpha_regret(kt(2), DirichletParams((2.0,) * 3), 3, 2.0, 2), r"^luckiness has m=3, got m=2$"),
    "luckiness_alpha_regret_supform(kt(2), J3, 3, 2, 2.0)": (
        lambda: luckiness_alpha_regret_supform(kt(2), J3, 3, 2, 2.0), r"^luckiness has m=3, got m=2$"),
}


@pytest.mark.parametrize("call, outcome", CONTRACT.values(), ids=CONTRACT.keys())
def test_a_malformed_argument_is_named_or_gives_the_documented_value(call, outcome):
    """Never an IndexError, a numpy message or a result that echoes the argument as passed."""
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            call()
    else:
        assert outcome(call())
