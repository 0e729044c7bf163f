"""Count-vector enumeration and the scan reduction, against a per-class oracle."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanml import cli, typeclass
from alphanml.exceptions import NumericError, UnsupportedError
from alphanml.numerics import log_multinomial, log_sum_exp
from alphanml.typeclass import (
    CountVector,
    count_vector_ranks,
    count_vector_total,
    count_vectors,
    log_multiplicities,
)

small_nm = st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=2, max_value=4))


def stars_and_bars(n: int, m: int) -> list[tuple[int, ...]]:
    """Every count vector of (n, m), from the positions of m - 1 bars among n + m - 1 slots.

    Shares no code with ``count_vectors``; the order is whatever the bar
    positions give, so callers sort or compare sets.
    """
    classes = []
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        edges = (-1, *bars, n + m - 1)
        classes.append(tuple(edges[i + 1] - edges[i] - 1 for i in range(m)))
    return classes


def per_class_log_sum(n: int, m: int, term) -> float:
    """ln sum over the classes of (n, m) of multiplicity * exp(term(counts)), one class at a time."""
    return log_sum_exp([log_multinomial(n, c) + term(c) for c in stars_and_bars(n, m)])


class TestCountVector:
    """Immutable count vectors over alphabets {1, ..., m}."""

    def test_from_sequence(self):
        cv = CountVector.from_sequence((1, 3, 1, 2, 1), 3)
        assert cv.counts == (3, 1, 1)
        assert cv.n == 5
        assert cv.m == 3

    def test_from_sequence_rejects_non_whole_symbol(self):
        with pytest.raises(ValueError, match="whole numbers"):
            CountVector.from_sequence([1.7, 2], 2)
        assert CountVector.from_sequence([1.0, 2, True], 2).counts == (2, 1)

    def test_with_symbol(self):
        assert CountVector((2, 0)).with_symbol(2).counts == (2, 1)

    def test_with_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            CountVector((2, 0)).with_symbol(3)

    def test_rejects_negative_and_short(self):
        with pytest.raises(ValueError):
            CountVector((1, -1))
        with pytest.raises(ValueError):
            CountVector((3,))

    def test_hashable_and_frozen(self):
        cv = CountVector((1, 2))
        assert cv in {CountVector((1, 2))}
        with pytest.raises(AttributeError):
            cv.counts = (0, 0)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_numpy_integers_build_the_int_vector(self, dtype):
        row = tuple(count_vectors(4, 2)[1].astype(dtype))
        cv, ints = CountVector(row), CountVector(tuple(int(c) for c in row))
        assert cv == ints and hash(cv) == hash(ints) and repr(cv) == repr(ints)
        assert all(type(c) is int for c in cv.counts)

    @pytest.mark.parametrize(
        "counts", [(1.0, 2), (np.float64(1.0), 2), (1, np.float64(2.0)), (-1, 2), (np.int64(-1), 2), (3, np.int8(-2))]
    )
    def test_non_integers_and_negatives_raise(self, counts):
        with pytest.raises(ValueError, match="counts must be non-negative integers"):
            CountVector(counts)


class TestEnumeration:
    """Ascending-lexicographic arrays of type classes, against stars and bars."""

    @given(small_nm)
    @settings(max_examples=60, deadline=None)
    def test_complete_and_counted(self, nm):
        """Every vector exactly once; the closed-form count agrees."""
        n, m = nm
        seen = [tuple(row) for row in count_vectors(n, m).tolist()]
        assert len(seen) == count_vector_total(n, m) == math.comb(n + m - 1, m - 1)
        assert set(seen) == set(stars_and_bars(n, m))
        assert len(set(seen)) == len(seen)

    @given(small_nm)
    @settings(max_examples=60, deadline=None)
    def test_ascending_lexicographic(self, nm):
        n, m = nm
        assert count_vectors(n, m).tolist() == [list(c) for c in sorted(stars_and_bars(n, m))]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("count", [count_vectors, count_vector_total])
    def test_non_finite_n_or_m_is_a_value_error(self, count, bad):
        with pytest.raises(ValueError, match=r"^n must be a non-negative integer, got "):
            count(bad, 2)
        with pytest.raises(ValueError, match=r"^alphabet size m must be an integer >= 2, got "):
            count(3, bad)

    def test_incremental_multiplicity_matches_direct(self):
        """The table-built log multiplicity equals the multinomial formula."""
        for n, m in [(0, 2), (1, 2), (7, 2), (9, 3), (5, 4)]:
            counts = count_vectors(n, m)
            for row, lm in zip(counts.tolist(), log_multiplicities(counts).tolist()):
                ref = log_multinomial(n, row)
                assert abs(lm - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_verify_multiplicities_helper(self):
        """The larger classes (30, 2) and (12, 3): every class's table log multiplicity is log_multinomial."""
        for n, m in [(30, 2), (12, 3)]:
            counts = count_vectors(n, m)
            assert sorted(map(tuple, counts.tolist())) == sorted(stars_and_bars(n, m))
            for row, lm in zip(counts.tolist(), log_multiplicities(counts).tolist()):
                assert math.isclose(lm, log_multinomial(n, row), rel_tol=1e-12, abs_tol=1e-12)

    @given(small_nm)
    @settings(max_examples=40, deadline=None)
    def test_multiplicities_sum_to_m_power_n(self, nm):
        """sum over classes of multiplicity = m^n (uniform source normalizes)."""
        n, m = nm
        total = log_sum_exp(log_multiplicities(count_vectors(n, m)))
        np.testing.assert_allclose(total, n * math.log(m), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(per_class_log_sum(n, m, lambda c: 0.0), total, rtol=1e-12, atol=1e-12)


class TestRanks:
    """``count_vector_ranks`` inverts ``count_vectors``."""

    @pytest.mark.parametrize("m", range(2, 7))
    def test_every_class_ranks_at_its_row(self, m):
        for n in range(16):
            counts = count_vectors(n, m)
            assert np.array_equal(count_vector_ranks(counts), np.arange(counts.shape[0]))

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_paths_match_row_search(self, m, data):
        """Rows of several totals, as a sequence's prefix counts are."""
        seq = data.draw(st.lists(st.integers(0, m - 1), max_size=14))
        path = np.vstack([np.zeros((1, m), dtype=np.int64), np.cumsum(np.eye(m, dtype=np.int64)[seq], axis=0)])
        found = [np.flatnonzero((count_vectors(int(row.sum()), m) == row).all(axis=1))[0] for row in path]
        assert count_vector_ranks(path).tolist() == found

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            count_vector_ranks([[2, -1, 3]])

    @pytest.mark.parametrize("bad", [[1, 2, 3], 4, [[[1, 2]]], np.zeros((2, 0), dtype=np.int64)])
    def test_array_of_other_shape_rejected(self, bad):
        with pytest.raises(ValueError, match=r"takes a \(K, m\) array of count vectors"):
            count_vector_ranks(bad)


class TestReduction:
    """A scan's reduction: one log-sum-exp of log multiplicities plus per-class terms."""

    @staticmethod
    def _term(counts: tuple[int, ...]) -> float:
        return -0.3 * counts[0] + 0.1 * sum(c * c for c in counts)

    def test_small_cases_exact(self):
        """n = 1 reduces over m singleton classes."""
        val = log_sum_exp(log_multiplicities(count_vectors(1, 2)))
        np.testing.assert_allclose(val, math.log(2.0), rtol=1e-15)

    def test_matches_per_class_oracle(self):
        """At K = 3321 classes the array reduction agrees with the stars-and-bars, log_multinomial oracle."""
        counts = count_vectors(80, 3)
        terms = -0.3 * counts[:, 0] + 0.1 * (counts * counts).sum(axis=1)
        value = log_sum_exp(log_multiplicities(counts) + terms)
        assert math.isclose(value, per_class_log_sum(80, 3, self._term), rel_tol=1e-13)

    def test_nan_term_raises(self):
        counts = count_vectors(3, 2)
        with pytest.raises(NumericError):
            log_sum_exp(log_multiplicities(counts) + np.full(counts.shape[0], math.nan))


class TestClassBudget:
    """More than ``_MAX_CLASSES`` classes fail fast, from the estimate, before any array is built."""

    @pytest.mark.parametrize(("n", "m", "estimate"), [(100_000, 5, "4.17e+18"), (3000, 4, "4.51e+09")])
    def test_over_budget_raises_without_allocating(self, n, m, estimate):
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedError, match=rf"has {re.escape(estimate)} type classes, above"):
                count_vectors(n, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_the_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(typeclass, "_MAX_CLASSES", count_vector_total(30, 3))
        assert count_vectors(30, 3).shape == (496, 3)
        with pytest.raises(UnsupportedError, match=r"\(n, m\) = \(31, 3\) has 528 type classes"):
            count_vectors(31, 3)

    @pytest.mark.parametrize("size", [["--n", "100000", "--m", "5"], ["--n", "3000", "--m", "4"]])
    def test_cli_exits_4_with_one_error_line(self, capsys, size):
        assert cli.main(["regret", "--kind", "worst", *size, "--predictor", "kt"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: (n, m) = (")
