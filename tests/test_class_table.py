"""The one class table per (n, m): every scan of a horizon reads ``count_vectors`` and their log multiplicities
from ``DEFAULT_CACHE``.

The table depends only on (n, m), so a value must not depend on whether it was cached: a cold call, a warm
call, a call after the table was evicted and the uncached ``log_normalizer(..., cache=None)`` give the same
float. ``count_vectors`` and ``log_multiplicities`` stay the oracle of the table itself.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanml import (
    AlphaNML,
    DirichletParams,
    LuckinessAlphaNML,
    LuckinessNML,
    Mixture,
    NML,
    TypeClassTable,
    alpha_regret,
    count_vectors,
    infinity_split_check,
    log_multiplicities,
    log_normalizer,
    predictor_kl,
    w_alpha_direct,
    worst_case_luckiness_regret,
    worst_case_regret,
)
from alphanml import predictors, typeclass
from alphanml.predictors import DEFAULT_CACHE


A3, B3 = DirichletParams((0.7, 1.2, 2.0)), DirichletParams((1.5, 2.0, 1.25))


@pytest.fixture
def cache():
    DEFAULT_CACHE.clear()
    yield DEFAULT_CACHE
    DEFAULT_CACHE.clear()


def _hex(report) -> tuple:
    """A report's value and maximizer, floats as ``float.hex``."""
    maximizer = report.maximizer
    point = maximizer.counts if hasattr(maximizer, "counts") else tuple(float(t).hex() for t in maximizer.theta)
    return float(report.value_nats).hex(), point


class TestEntry:
    @pytest.mark.parametrize("n,m", [(0, 2), (1, 2), (25, 2), (0, 3), (9, 3), (7, 4), (4, 6)])
    def test_equals_the_enumeration(self, cache, n, m):
        counts, log_mult = predictors._class_table(n, m)
        assert counts.dtype == np.int64 and np.array_equal(counts, count_vectors(n, m))
        assert np.array_equal(log_mult, log_multiplicities(count_vectors(n, m)))
        assert list(cache._values) == [(predictors._class_table, n, m)]

    def test_arrays_are_read_only(self, cache):
        counts, log_mult = predictors._class_table(6, 3)
        with pytest.raises(ValueError, match="read-only"):
            counts[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            log_mult += 1.0
        assert np.array_equal(counts, count_vectors(6, 3))

    def test_equal_n_and_m_share_one_entry(self, cache):
        table = predictors._class_table(np.int64(5), 3.0)
        assert predictors._class_table(5.0, np.int64(3)) is table
        assert predictors._class_table(5, 3) is table
        (key,) = cache._values
        assert key == (predictors._class_table, 5, 3) and {type(key[1]), type(key[2])} == {int}

    @pytest.mark.parametrize("n,m", [(-1, 2), (2.5, 2), (3, 1), (3, 2.5), (float("nan"), 2)])
    def test_invalid_n_or_m_raises(self, cache, n, m):
        with pytest.raises(ValueError):
            predictors._class_table(n, m)
        assert len(cache) == 0

    @pytest.mark.parametrize("n,m", [(0, 2), (30, 2), (8, 3), (5, 5)])
    def test_charge(self, cache, n, m):
        counts, log_mult = table = predictors._class_table(n, m)
        charge = counts.size + log_mult.size + predictors._ENTRY_FLOATS
        assert predictors._charge(table) == charge == (m + 1) * counts.shape[0] + predictors._ENTRY_FLOATS
        assert cache.floats == charge


class TestOneEnumeration:
    def test_every_scan_of_one_horizon_enumerates_once(self, cache, monkeypatch):
        n, m = 14, 3
        calls = []
        for name in ("count_vectors", "log_multiplicities"):
            original = getattr(typeclass, name)
            counting = lambda *args, name=name, original=original: calls.append(name) or original(*args)
            for key, module in list(sys.modules.items()):  # every binding a library module holds
                if key.startswith("alphanml") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        a, b = DirichletParams((0.7, 1.2, 2.0)), DirichletParams((1.5, 2.0, 1.25))
        spec = AlphaNML(2.5, a)
        log_normalizer(spec, n, m)
        worst_case_regret(spec, n, m)
        worst_case_luckiness_regret(spec, b, n, m)
        TypeClassTable(n, m, LuckinessAlphaNML(1.5, b))
        w_alpha_direct(n, m, 3.0, a)
        predictor_kl(Mixture(a), NML(), n, m)
        assert calls == ["count_vectors", "log_multiplicities"]

    def test_uncached_normalizer_leaves_the_cache_alone(self, cache):
        spec = AlphaNML(2.0, DirichletParams.jeffreys(3))
        cached = log_normalizer(spec, 10, 3)
        log_normalizer(NML(), 11, 3)
        before, floats = list(cache._values.items()), cache.floats
        assert len(before) == 4
        # a read would move the (10, 3) entries to the most recently used end, and a write would add one
        assert log_normalizer(spec, 10, 3, cache=None) == cached
        log_normalizer(NML(), 12, 3, cache=None)
        assert list(cache._values.items()) == before and cache.floats == floats


class TestOverTheBound:
    """With nothing stored, each scan enumerates its classes and evaluates its numerators as often as before
    scans passed their class table: a helper that looked the table up again would enumerate again."""

    @pytest.fixture
    def calls(self, cache, monkeypatch):
        monkeypatch.setattr(predictors, "_CACHE_FLOATS", 1)  # below every charge, so no value is stored
        calls = []
        for name in ("count_vectors", "log_numerators"):
            original = getattr(predictors, name)
            counting = lambda *args, name=name, original=original: calls.append(name) or original(*args)
            for key, module in list(sys.modules.items()):
                if key.startswith("alphanml") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize(
        "scan, enumerations, numerators",
        [
            (lambda: worst_case_regret(NML(), 9, 3), 1, 1),
            (lambda: worst_case_luckiness_regret(LuckinessNML(B3), B3, 9, 3), 1, 1),
            (lambda: worst_case_regret(AlphaNML(2.5, A3), 9, 3), 1, 2),
            (lambda: worst_case_regret(Mixture(A3), 9, 3), 1, 2),
            (lambda: TypeClassTable(9, 3, AlphaNML(2.5, A3)), 1, 1),
            (lambda: predictor_kl(AlphaNML(2.5, A3), NML(), 9, 3), 1, 2),
            (lambda: infinity_split_check(AlphaNML(2.5, A3), 9, 3), 3, 5),
        ],
        ids=["worst-benchmark", "luckiness-benchmark", "worst-alpha", "worst-mixture", "table", "kl", "split"],
    )
    def test_scan_enumerates_once_per_lookup(self, calls, cache, scan, enumerations, numerators):
        scan()
        assert (calls.count("count_vectors"), calls.count("log_numerators")) == (enumerations, numerators)
        assert len(cache) == 0


class TestThreads:
    def test_threads_sharing_class_tables_get_the_cold_values(self, cache, monkeypatch):
        # more threads than cores, switching often, over (n, m) that overlap and a bound that evicts tables
        specs = [NML(), AlphaNML(2.0, DirichletParams.jeffreys(3)), LuckinessNML(DirichletParams((1.5, 2.0, 1.0)))]
        horizons = [8, 9, 10, 11]
        expected = {(k, n): _hex(worst_case_regret(spec, n, 3)) for k, spec in enumerate(specs) for n in horizons}
        tables = [predictors._charge(predictors._class_table(n, 3)) for n in horizons]
        monkeypatch.setattr(predictors, "_CACHE_FLOATS", 2 * max(tables))
        cache.clear()
        wrong = []

        def code(offset):
            for i in range(40):
                k, n = (i + offset) % 3, horizons[(i * (offset + 1)) % 4]
                if _hex(worst_case_regret(specs[k], n, 3)) != expected[k, n]:
                    wrong.append((k, n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=code, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and wrong == []
        assert cache.floats == sum(map(predictors._charge, cache._values.values())) <= predictors._CACHE_FLOATS


def _specs(m: int, draw) -> list:
    a = DirichletParams(tuple(draw(st.floats(0.2, 3.0)) for _ in range(m)))
    b = DirichletParams(tuple(draw(st.floats(1.0, 3.0)) for _ in range(m)))
    alpha = draw(st.floats(1.0, 8.0))
    return [Mixture(a), AlphaNML(alpha, a), NML(), LuckinessNML(b), LuckinessAlphaNML(alpha, b)]


def _values(specs: list, n: int, m: int) -> tuple[list, list]:
    """The normalizers, and every other scan's value and maximizer, at (n, m) for each spec, as ``float.hex``."""
    b = specs[3].b
    normalizers, scans = [], []
    for k, spec in enumerate(specs):
        normalizers.append(float(log_normalizer(spec, n, m)).hex())
        scans.append(_hex(worst_case_regret(spec, n, m)))
        scans.append(_hex(worst_case_luckiness_regret(spec, b, n, m)))
        scans.append(float(predictor_kl(spec, specs[k - 1], n, m)).hex())
        scans.append(TypeClassTable(n, m, spec).log_joint.tobytes())
    result = w_alpha_direct(n, m, specs[1].alpha, specs[1].a)
    scans.append((float(result.value).hex(), result.maximizer.counts))
    if m == 2:
        scans.append(_hex(alpha_regret(specs[1], n, m, 2.0)))
    return normalizers, scans


class TestCacheStates:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_values_do_not_depend_on_the_class_table(self, data):
        m = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(0, {2: 40, 3: 12, 4: 6}[m]))
        specs = _specs(m, data.draw)
        with pytest.MonkeyPatch.context() as mp:
            DEFAULT_CACHE.clear()
            cold = _values(specs, n, m)
            assert (predictors._class_table, n, m) in DEFAULT_CACHE._values
            assert _values(specs, n, m) == cold  # warm
            # room for one normalizer: the next store evicts the class table, which is then never stored
            mp.setattr(predictors, "_CACHE_FLOATS", 1 + predictors._ENTRY_FLOATS)
            log_normalizer(NML(), n + 1, m)
            assert list(DEFAULT_CACHE._values) == [(predictors._compute_log_normalizer, NML(), n + 1, m)]
            assert _values(specs, n, m) == cold
            assert (predictors._class_table, n, m) not in DEFAULT_CACHE._values
            assert [float(log_normalizer(spec, n, m, cache=None)).hex() for spec in specs] == cold[0]
        DEFAULT_CACHE.clear()
