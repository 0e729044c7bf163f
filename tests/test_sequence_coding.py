"""Sequence coding and one-class joints against the routes they replaced.

``cumulative_log_loss`` reads every prefix's rank with the composition
tables kept in its lattice-table entry of ``DEFAULT_CACHE``; the reference
ranks the rows (horizon - t, c_t) with ``count_vector_ranks``, as sequence
coding did before the tables were kept. ``log_joint`` checks its counts
once; the reference is ``log_joints`` of a one-row list. Both must agree
bit for bit, and every error and the empty-sequence mixture value stay.
"""

from __future__ import annotations

import math

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
    count_vector_ranks,
    cumulative_log_loss,
    kt,
    laplace,
    log_joint,
    log_joints,
    log_normalizer,
    log_numerators,
)
from alphanml import predictors
from alphanml.exceptions import InfeasibleModelError
from alphanml.predictors import DEFAULT_CACHE, NormalizerCache
from alphanml.typeclass import _composition_tables

MAX_LENGTH = {2: 30, 3: 16, 4: 10, 5: 8}


def _specs(m: int, draw) -> list:
    a = DirichletParams(tuple(draw(st.floats(0.2, 3.0)) for _ in range(m)))
    b = DirichletParams(tuple(draw(st.floats(1.0, 3.0)) for _ in range(m)))
    alpha = draw(st.floats(1.0, 8.0))
    return [Mixture(a), AlphaNML(alpha, a), NML(), LuckinessNML(b), LuckinessAlphaNML(alpha, b)]


def _prefix_path(sequence, m: int) -> np.ndarray:
    """(T+1, m) prefix counts of a sequence, from the empty prefix on."""
    steps = np.eye(m, dtype=np.int64)[np.array(sequence, dtype=np.int64) - 1]
    return np.vstack([np.zeros((1, m), dtype=np.int64), np.cumsum(steps, axis=0)])


def _level_rows(path: np.ndarray, horizon: int) -> np.ndarray:
    """The rows (horizon - t, c_t) whose ranks in ``count_vectors(horizon, m + 1)`` locate each prefix."""
    return np.column_stack([horizon - np.arange(path.shape[0]), path])


def reference_cumulative_log_loss(spec, sequence, m: int, horizon: int) -> float:
    """The lattice table read at ``count_vector_ranks`` of every (horizon - t, c_t), summed as before."""
    path = _prefix_path(sequence, m)
    marginals = predictors._lattice_table(spec, horizon, m)[count_vector_ranks(_level_rows(path, horizon))]
    return math.fsum(marginals[:-1] - marginals[1:])


@st.composite
def coding_cases(draw):
    """(m, sequence, horizon, the five kinds): m in 2..5, horizon at the length or 3 beyond, empty sequences too."""
    m = draw(st.integers(2, 5))
    seq = draw(st.lists(st.integers(1, m), max_size=MAX_LENGTH[m]))
    horizon = len(seq) + draw(st.sampled_from([0, 3]))
    return m, seq, horizon, _specs(m, draw)


@pytest.fixture
def cache():
    DEFAULT_CACHE.clear()
    yield DEFAULT_CACHE
    DEFAULT_CACHE.clear()


class TestLatticeRanks:
    @given(coding_cases())
    @settings(max_examples=60, deadline=None)
    def test_lattice_read_ranks_are_count_vector_ranks(self, case):
        m, seq, horizon, specs = case
        path = _prefix_path(seq, m)
        for spec in specs:
            cumulative_log_loss(spec, seq, m, horizon=horizon)
            table, compositions = DEFAULT_CACHE._values[(predictors._lattice_table, spec, horizon, m)]
            assert np.array_equal(compositions, _composition_tables(horizon, m + 1))
            ranks = predictors._prefix_ranks(compositions, path, horizon)
            assert np.array_equal(ranks, count_vector_ranks(_level_rows(path, horizon)))
            assert ranks.max() < table.size == math.comb(horizon + m, m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_composition_tables_count_compositions(self, m):
        tables = _composition_tables(12, m)
        assert tables.tolist() == [[math.comb(r + p - 1, p - 1) for r in range(13)] for p in range(1, m + 1)]


class TestBitIdentical:
    @given(coding_cases())
    @settings(max_examples=60, deadline=None)
    def test_losses_equal_the_count_vector_ranks_route(self, case):
        m, seq, horizon, specs = case
        for spec in specs:
            loss = cumulative_log_loss(spec, seq, m, horizon=horizon)
            assert loss.hex() == reference_cumulative_log_loss(spec, seq, m, horizon).hex()
            assert cumulative_log_loss(spec, seq, m, horizon=horizon).hex() == loss.hex()  # a table hit
            if not seq:
                assert loss == 0.0

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_log_joint_equals_one_row_list(self, m, data):
        n = data.draw(st.integers(0, 12))
        counts = CountVector(tuple(np.random.default_rng(data.draw(st.integers(0, 999))).multinomial(n, [1 / m] * m)))
        for spec in _specs(m, data.draw):
            value = log_joint(spec, counts)
            assert value.hex() == float(log_joints(spec, [list(counts.counts)])[0]).hex()
            numerator = float(log_numerators(spec, [counts.counts])[0])
            if isinstance(spec, Mixture) or (isinstance(spec, AlphaNML) and spec.alpha == 1.0):  # normalized
                expected = 0.0 if n == 0 else numerator
            else:
                expected = numerator - log_normalizer(spec, n, m, cache=None)
            assert value.hex() == expected.hex()


class TestErrorsAndSpecialCases:
    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match=r"^spec is over an alphabet of size 3, got m=2$"):
            log_joint(kt(3), CountVector((1, 2)))
        with pytest.raises(ValueError, match=r"^spec is over an alphabet of size 3, got m=2$"):
            cumulative_log_loss(kt(3), [1, 2], 2)

    def test_infeasible_luckiness_nml(self):
        spec = LuckinessNML(DirichletParams((0.5, 1.5)))
        with pytest.raises(InfeasibleModelError, match=r"exponent -0\.5 < 0 at counts=\(0, 3\)"):
            log_joint(spec, CountVector((0, 3)))
        with pytest.raises(InfeasibleModelError):  # the normalizer of n = 3 sums over (0, 3) too
            log_joint(spec, CountVector((1, 2)))

    def test_rows_of_several_totals(self):
        with pytest.raises(ValueError, match=r"^count vectors of several horizons \[2, 3\] in one call$"):
            log_joints(NML(), [[1, 2], [2, 0]])

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_mixture_of_the_empty_sequence_is_exactly_zero(self, m):
        a = DirichletParams(tuple(0.3 + 0.4 * i for i in range(m)))
        for spec in (kt(m), laplace(m), Mixture(a), AlphaNML(1.0, a)):
            assert log_joint(spec, CountVector.zeros(m)) == 0.0
            assert log_joints(spec, np.zeros((1, m), dtype=np.int64)).tolist() == [0.0]
            assert cumulative_log_loss(spec, [], m) == 0.0


class TestRankTablesInTheCache:
    def test_bound_holds_with_the_rank_tables_stored(self, cache, monkeypatch):
        # room for two entries of horizon 12 or less at m = 2, so the 15 (spec, horizon) tables evict each other
        monkeypatch.setattr(predictors, "_CACHE_FLOATS", 2 * (math.comb(14, 2) + predictors._ENTRY_FLOATS))
        specs = [NML(), kt(2), AlphaNML(2.0, DirichletParams.jeffreys(2))]
        for step in range(30):
            spec, horizon = specs[step % 3], 8 + step % 5
            loss = cumulative_log_loss(spec, [1, 2, 2, 1], 2, horizon=horizon)
            assert loss == reference_cumulative_log_loss(spec, [1, 2, 2, 1], 2, horizon)
            charges = [predictors._charge(value) for value in cache._values.values()]
            assert cache.floats == sum(charges) <= predictors._CACHE_FLOATS and len(cache) <= 2
            for (_, _, h, m), (table, compositions) in cache._values.items():
                assert table.size + predictors._ENTRY_FLOATS == predictors._charge((table, compositions))
                assert compositions.shape == (m + 1, h + 1)

    def test_rank_tables_hold_at_most_30_percent_of_the_charge(self):
        # the integers a lattice entry holds beyond what it is charged, for every m <= 10 up to horizon 300
        for m in range(2, 11):
            for horizon in range(301):
                extra = _composition_tables(horizon, m + 1).size
                assert extra <= 0.3 * (math.comb(horizon + m, m) + predictors._ENTRY_FLOATS)


class TestDefaultCacheAtCallTime:
    def test_log_normalizer_and_joints_use_one_instance(self, cache, monkeypatch):
        fresh = NormalizerCache()
        monkeypatch.setattr(predictors, "DEFAULT_CACHE", fresh)
        log_normalizer(NML(), 5, 2)
        log_joint(NML(), CountVector((2, 4)))
        cumulative_log_loss(NML(), [1, 2], 2)
        assert len(fresh) == 5 and len(cache) == 0
        keys = {
            (predictors._compute_log_normalizer, NML(), 5, 2),
            (predictors._compute_log_normalizer, NML(), 6, 2),
            (predictors._class_table, 5, 2),
            (predictors._class_table, 6, 2),
            (predictors._lattice_table, NML(), 2, 2),
        }
        assert set(fresh._values) == keys
        # two normalizers, class tables of 6 and 7 rows (two counts and a log multiplicity each), C(4, 2) lattice cells
        assert fresh.floats == 2 + 3 * 6 + 3 * 7 + 6 + 5 * predictors._ENTRY_FLOATS
        assert log_normalizer(NML(), 5, 2, cache=None) == log_normalizer(NML(), 5, 2)
        assert len(fresh) == 5 and set(fresh._values) == keys
