"""The one cache, ``DEFAULT_CACHE``, with the lattice tables ``cumulative_log_loss`` reads and the normalizers.

A table depends only on (spec, horizon, m), so a loss must not depend on
what the cache held before the call: a cold call, a repeat, a call after
other sequences and a call after the table was evicted give the same float.
The same holds for a normalizer. ``tests/test_scan_tables.py`` checks the
table's values against the pass that searched each level for the prefix.
"""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanml import (
    AlphaNML,
    CountVector,
    DirichletParams,
    LuckinessAlphaNML,
    LuckinessNML,
    Mixture,
    NML,
    UnsupportedError,
    count_vector_ranks,
    count_vectors,
    cumulative_log_loss,
    kt,
    log_joint,
    log_joints,
    log_normalizer,
)
from alphanml import predictors, typeclass
from alphanml.predictors import DEFAULT_CACHE


def _specs(m: int, draw) -> list:
    a = DirichletParams(tuple(draw(st.floats(0.2, 3.0)) for _ in range(m)))
    b = DirichletParams(tuple(draw(st.floats(1.0, 3.0)) for _ in range(m)))
    alpha = draw(st.floats(1.0, 8.0))
    return [Mixture(a), AlphaNML(alpha, a), NML(), LuckinessNML(b), LuckinessAlphaNML(alpha, b)]


@pytest.fixture
def cache():
    """``DEFAULT_CACHE``, empty before and after the test, so no entry charged under a patched constant outlives it."""
    DEFAULT_CACHE.clear()
    yield DEFAULT_CACHE
    DEFAULT_CACHE.clear()


def _stored_charges(cache) -> int:
    return sum(predictors._charge(value) for value in cache._values.values())


def _tables(cache) -> list:
    """(spec, horizon, m) of every lattice table in the cache, least recently used first."""
    return [key[1:] for key in cache._values if key[0] is predictors._lattice_table]


class TestCachedLosses:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_losses_do_not_depend_on_the_cache(self, data):
        m = data.draw(st.integers(2, 4))
        symbols = st.lists(st.integers(1, m), max_size={2: 20, 3: 10, 4: 6}[m])
        seqs = data.draw(st.lists(symbols, min_size=2, max_size=3))
        horizon = max(map(len, seqs)) + data.draw(st.sampled_from([0, 2]))
        specs = _specs(m, data.draw)
        with pytest.MonkeyPatch.context() as mp:
            cold = {}
            for spec in specs:
                DEFAULT_CACHE.clear()
                cold[spec] = [cumulative_log_loss(spec, seq, m, horizon=horizon) for seq in seqs]
            # one cache for every spec, which all stay in it; the sequences and specs interleave
            DEFAULT_CACHE.clear()
            for _ in range(2):
                for seq_index, seq in enumerate(seqs):
                    for spec in specs:
                        assert cumulative_log_loss(spec, seq, m, horizon=horizon) == cold[spec][seq_index]
            assert len(_tables(DEFAULT_CACHE)) == len(DEFAULT_CACHE) == len(specs)
            # room for one table: each spec's call evicts the previous spec's table
            mp.setattr(predictors, "_CACHE_FLOATS", math.comb(horizon + m, m) + predictors._ENTRY_FLOATS)
            DEFAULT_CACHE.clear()
            for seq_index, seq in enumerate(seqs):
                for spec in specs:
                    assert cumulative_log_loss(spec, seq, m, horizon=horizon) == cold[spec][seq_index]
                    assert _tables(DEFAULT_CACHE) == [(spec, horizon, m)]
        DEFAULT_CACHE.clear()

    def test_table_is_in_count_vectors_order_of_one_more_symbol(self):
        # the prefix c at level L sits at the rank of (horizon - L, c) among the classes of (horizon, m + 1)
        horizon, m = 7, 3
        table = predictors._lattice_table(kt(m), horizon, m)
        rows = count_vectors(horizon, m + 1)
        assert table.shape == (math.comb(horizon + m, m),) == (rows.shape[0],)
        assert np.array_equal(count_vector_ranks(rows), np.arange(rows.shape[0]))
        level = horizon - rows[:, 0]
        top = level == horizon
        assert np.array_equal(table[top], predictors.log_numerators(kt(m), rows[top, 1:]))


class TestBound:
    def test_cache_never_holds_more_floats_than_the_bound(self, cache, monkeypatch):
        monkeypatch.setattr(predictors, "_ENTRY_FLOATS", 0)  # charge table entries only, as the sizes below do
        monkeypatch.setattr(predictors, "_CACHE_FLOATS", 100)  # C(8+2, 2) = 45 floats per table
        spec = NML()
        for horizon in (8, 8, 7, 8, 6, 9, 5, 8):
            cumulative_log_loss(spec, [1, 2] * 2, 2, horizon=horizon)
            assert cache.floats == _stored_charges(cache) <= 100
        # least recently used first out: 9 (55 floats) then 5 (21) then 8 (45) would hold 121
        assert _tables(cache) == [(spec, 5, 2), (spec, 8, 2)]

    def test_table_over_the_bound_is_returned_but_not_stored(self, cache, monkeypatch):
        monkeypatch.setattr(predictors, "_ENTRY_FLOATS", 0)
        monkeypatch.setattr(predictors, "_CACHE_FLOATS", 20)
        cumulative_log_loss(NML(), [1], 2, horizon=3)  # C(5, 2) = 10 floats: stored
        loss = cumulative_log_loss(NML(), [1, 2, 2], 2, horizon=6)  # C(8, 2) = 28 floats: not stored
        assert _tables(cache) == [(NML(), 3, 2)] and cache.floats == 10
        assert loss == cumulative_log_loss(NML(), [1, 2, 2], 2, horizon=6)

    def test_evicted_normalizer_is_recomputed_equal(self, cache, monkeypatch):
        spec = AlphaNML(2.5, DirichletParams((0.7, 1.3)))
        cold = log_normalizer(spec, 30, 2, cache=None)
        joints = log_joints(spec, count_vectors(30, 2))
        monkeypatch.setattr(predictors, "_CACHE_FLOATS", 2 * predictors._charge(cold))  # room for two normalizers
        cache.clear()
        log_normalizer(spec, 30, 2)
        log_normalizer(spec, 31, 2)
        log_normalizer(spec, 32, 2)  # evicts n = 30
        assert len(cache) == 2 and cache.floats == _stored_charges(cache) == 2 * predictors._charge(cold)
        # each scan's class table, charged 3 * (n + 1) + _ENTRY_FLOATS, is over this bound: computed, not stored
        assert list(cache._values) == [(predictors._compute_log_normalizer, spec, n, 2) for n in (31, 32)]
        assert log_normalizer(spec, 30, 2) == cold
        assert np.array_equal(log_joints(spec, count_vectors(30, 2)), joints)


class TestTableBudget:
    """A lattice table of more than ``typeclass._MAX_LATTICE_ENTRIES`` entries fails fast, from the estimate C(h + m, m)."""

    def test_over_budget_raises_without_allocating(self, cache):
        # 3,000,001 classes at the horizon are within the class budget; the table's 4.5e12 entries are not
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedError, match=r"\(horizon, m\) = \(3000000, 2\) has 4500004500001 entries, above"):
                cumulative_log_loss(kt(2), [1, 2, 1], horizon=3_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000 and len(cache) == 0

    @pytest.mark.parametrize("m, horizon", [(2, 16_382), (3, 928), (4, 235), (6, 64)])
    def test_the_budget_ends_after_these_horizons(self, cache, m, horizon):
        """Binary horizons up to 16,382 and ternary ones up to 928 are within the 2^27 entries; one more is not."""
        assert math.comb(horizon + m, m) <= typeclass._MAX_LATTICE_ENTRIES < math.comb(horizon + 1 + m, m)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedError, match=rf"\(horizon, m\) = \({horizon + 1}, {m}\) has .* entries"):
                cumulative_log_loss(kt(m), [1, 2], m, horizon=horizon + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000 and len(cache) == 0

    def test_the_budget_is_inclusive(self, cache, monkeypatch):
        monkeypatch.setattr(typeclass, "_MAX_LATTICE_ENTRIES", math.comb(8 + 2, 2))
        assert cumulative_log_loss(NML(), [1, 2], 2, horizon=8) > 0.0
        with pytest.raises(UnsupportedError, match=r"\(horizon, m\) = \(9, 2\) has 55 entries"):
            cumulative_log_loss(NML(), [1, 2], 2, horizon=9)

    @pytest.mark.parametrize(
        "m, sequence, loss",
        [
            # 12.5e6 entries, above the 2^23 class budget, which the lattice tables do not share
            (2, [1 + (k * k % 7 < 3) for k in range(5000)], "0x1.7669e053b6a90p+11"),
            (3, [1 + (5 * k + k // 7) % 3 for k in range(400)], "0x1.b55b6b43076c4p+8"),  # 10.9e6 entries
        ],
        ids=["m=2", "m=3"],
    )
    def test_long_sequences_keep_their_loss(self, cache, m, sequence, loss):
        """The bits these sequences had before the lattice tables had a budget."""
        assert math.comb(len(sequence) + m, m) > typeclass._MAX_CLASSES
        assert cumulative_log_loss(kt(m), sequence, m).hex() == loss


class TestOneCache:
    def test_normalizers_and_tables_share_the_cache(self, cache):
        # a normalizer, the class table it is reduced over and a lattice table of the same (spec, n, m)
        # are three entries under three keys
        spec, horizon, m = AlphaNML(2.0, DirichletParams.jeffreys(3)), 8, 3
        seq = [1, 3, 2, 2, 1, 1, 3, 2]
        cold_loss = cumulative_log_loss(spec, seq, m, horizon=horizon)
        cache.clear()
        cold_normalizer = log_normalizer(spec, horizon, m)
        keys = {
            (predictors._compute_log_normalizer, spec, horizon, m),
            (predictors._class_table, horizon, m),
            (predictors._lattice_table, spec, horizon, m),
        }
        for _ in range(2):
            assert log_normalizer(spec, horizon, m) == cold_normalizer == log_normalizer(spec, horizon, m, cache=None)
            assert cumulative_log_loss(spec, seq, m, horizon=horizon) == cold_loss
            assert len(cache) == 3 and _tables(cache) == [(spec, horizon, m)] and set(cache._values) == keys
        # each entry is charged its floats and the entry charge; the class table holds K rows of m counts
        # and K log multiplicities, K = C(horizon + m - 1, m - 1)
        classes = math.comb(horizon + m - 1, m - 1)
        assert cache.floats == 1 + (m + 1) * classes + math.comb(horizon + m, m) + 3 * predictors._ENTRY_FLOATS
        # at the full length the chain telescopes back to -log_joint
        assert math.isclose(cold_loss, -log_joint(spec, CountVector.from_sequence(seq, m)), rel_tol=1e-12)

    def test_two_threads_missing_one_key_count_its_floats_once(self, cache, monkeypatch):
        build = predictors._lattice_table
        both_missed = threading.Barrier(2, timeout=30)

        def build_after_both_missed(*args):
            table = build(*args)
            both_missed.wait()  # neither thread stores before both have missed the key
            return table

        monkeypatch.setattr(predictors, "_lattice_table", build_after_both_missed)
        losses = []
        code = lambda: losses.append(cumulative_log_loss(NML(), [1, 2, 2], 2, horizon=3))  # noqa: E731
        threads = [threading.Thread(target=code) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(losses) == 2 and losses[0] == losses[1]
        assert len(cache) == 1
        assert cache.floats == _stored_charges(cache) == math.comb(3 + 2, 2) + predictors._ENTRY_FLOATS

    def test_threads_sharing_the_cache_keep_its_count(self, cache, monkeypatch):
        # more threads than cores, switching often, over keys that overlap and a bound that evicts
        monkeypatch.setattr(predictors, "_CACHE_FLOATS", 6 * (math.comb(9 + 2, 2) + predictors._ENTRY_FLOATS))
        specs = [NML(), kt(2), AlphaNML(2.0, DirichletParams.jeffreys(2))]
        expected = {(spec, h): cumulative_log_loss(spec, [1, 2, 2], 2, horizon=h) for spec in specs for h in range(3, 10)}
        cache.clear()
        wrong = []

        def code(offset):
            for i in range(60):
                spec, h = specs[(i + offset) % 3], 3 + (i * (offset + 1)) % 7
                if cumulative_log_loss(spec, [1, 2, 2], 2, horizon=h) != expected[spec, h]:
                    wrong.append((spec, h))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=code, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and wrong == []
        assert cache.floats == _stored_charges(cache) <= predictors._CACHE_FLOATS
