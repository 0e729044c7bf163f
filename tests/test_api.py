"""The public signatures carry no keyword that changes nothing."""

from __future__ import annotations

import inspect

import pytest

import alphanml
from alphanml import log_normalizer, maximize_on_simplex, reduce_over_type_classes, regret


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
        (regret.integrate_unit_interval, {"epsabs", "margin", "limit"}),
        (alphanml.average_luckiness_regret, {"cache", "tol"}),
        (alphanml.luckiness_alpha_regret, {"cache", "tol"}),
    ],
)
def test_constant_keywords_are_gone(function, dropped):
    assert not _parameters(function) & dropped


def test_reduce_over_type_classes_signature():
    assert list(inspect.signature(reduce_over_type_classes).parameters) == ["n", "m", "term"]


def test_maximize_on_simplex_signature():
    assert list(inspect.signature(maximize_on_simplex).parameters) == ["m", "objective"]


def test_log_normalizer_keeps_threads_as_a_no_op():
    spec = alphanml.NML()
    assert log_normalizer(spec, 9, 3, cache=None, threads=4) == log_normalizer(spec, 9, 3, cache=None)
