"""Count-vector enumeration and the per-class reference reduction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanml.exceptions import NumericError
from alphanml.numerics import log_multinomial, log_sum_exp
from alphanml.typeclass import (
    CountVector,
    count_vector_total,
    count_vectors,
    enumerate_count_vectors,
    iter_with_log_multiplicity,
    log_multiplicities,
    reduce_over_type_classes,
    verify_multiplicities,
)

small_nm = st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=2, max_value=4))


class TestCountVector:
    """Immutable count vectors over alphabets {1, ..., m}."""

    def test_from_sequence(self):
        cv = CountVector.from_sequence((1, 3, 1, 2, 1), 3)
        assert cv.counts == (3, 1, 1)
        assert cv.n == 5
        assert cv.m == 3

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


class TestEnumeration:
    """Streaming ascending-lexicographic enumeration of type classes."""

    @given(small_nm)
    @settings(max_examples=60, deadline=None)
    def test_complete_and_counted(self, nm):
        """Yields every vector exactly once; the closed-form count agrees."""
        n, m = nm
        seen = list(enumerate_count_vectors(n, m))
        assert len(seen) == count_vector_total(n, m) == math.comb(n + m - 1, m - 1)
        assert len(set(seen)) == len(seen)
        assert all(cv.n == n and cv.m == m for cv in seen)

    @given(small_nm)
    @settings(max_examples=60, deadline=None)
    def test_ascending_lexicographic(self, nm):
        n, m = nm
        seen = [cv.counts for cv in enumerate_count_vectors(n, m)]
        assert seen == sorted(seen)

    def test_incremental_multiplicity_matches_direct(self):
        """The O(1)-updated log multiplicity equals the multinomial formula."""
        for n, m in [(0, 2), (1, 2), (7, 2), (9, 3), (5, 4)]:
            for cv, lm in iter_with_log_multiplicity(n, m):
                ref = log_multinomial(n, cv.counts)
                assert abs(lm - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_verify_multiplicities_helper(self):
        verify_multiplicities(30, 2)
        verify_multiplicities(12, 3)

    @given(small_nm)
    @settings(max_examples=40, deadline=None)
    def test_multiplicities_sum_to_m_power_n(self, nm):
        """sum over classes of multiplicity = m^n (uniform source normalizes)."""
        n, m = nm
        total = reduce_over_type_classes(n, m, lambda cv: 0.0)
        np.testing.assert_allclose(total, n * math.log(m), rtol=1e-12, atol=1e-12)


class TestReduction:
    """One log-sum-exp over every type class, one term call per class."""

    @staticmethod
    def _term(cv: CountVector) -> float:
        return -0.3 * cv.counts[0] + 0.1 * sum(c * c for c in cv.counts)

    def test_small_cases_exact(self):
        """n = 1 reduces over m singleton classes."""
        val = reduce_over_type_classes(1, 2, lambda cv: 0.0)
        np.testing.assert_allclose(val, math.log(2.0), rtol=1e-15)

    def test_term_receiving_each_class_once(self):
        seen = []
        reduce_over_type_classes(6, 2, lambda cv: seen.append(cv) or 0.0)
        assert len(seen) == count_vector_total(6, 2)
        assert len(set(seen)) == len(seen)

    def test_matches_array_reduction_bitwise(self):
        """At K = 3321 classes the per-class route is one log-sum-exp of the array route, bit for bit."""
        counts = count_vectors(80, 3)
        terms = -0.3 * counts[:, 0] + 0.1 * (counts * counts).sum(axis=1)
        expected = log_sum_exp(log_multiplicities(counts) + terms)
        assert reduce_over_type_classes(80, 3, self._term) == expected

    def test_nan_term_raises(self):
        with pytest.raises(NumericError):
            reduce_over_type_classes(3, 2, lambda cv: math.nan)
