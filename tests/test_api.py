"""The public names, and signatures that carry no keyword that changes nothing."""

from __future__ import annotations

import inspect

import pytest

import alphanml
from alphanml import log_joints, log_normalizer, regret

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
