"""Log-domain special functions and stable reductions."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanml.exceptions import NumericError
from alphanml.numerics import (
    LOG_TWO,
    log_gamma,
    log_multinomial,
    log_multivariate_beta,
    log_sum_exp,
    log_sum_exp_array,
    xlogy,
)

finite_floats = st.floats(min_value=-700.0, max_value=700.0, allow_nan=False)


class TestLogGamma:
    """ln Gamma with table-backed exactness on (half-)integer arguments."""

    @given(st.floats(min_value=0.5, max_value=1e4))
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, x):
        """ln Gamma(x + 1) = ln Gamma(x) + ln x to relative 1e-12."""
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + math.log(x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 100, 1000, 50_000])
    def test_integer_agrees_with_lgamma(self, k):
        """Table values match math.lgamma to relative 1e-13 at integers."""
        assert abs(log_gamma(float(k)) - math.lgamma(k)) <= 1e-13 * max(1.0, math.lgamma(k))

    @pytest.mark.parametrize("k", [0, 1, 2, 10, 999, 50_000])
    def test_half_integer_agrees_with_lgamma(self, k):
        """Table values match math.lgamma to relative 1e-13 at half-integers."""
        x = k + 0.5
        assert abs(log_gamma(x) - math.lgamma(x)) <= 1e-13 * max(1.0, abs(math.lgamma(x)))

    def test_small_exact_values(self):
        """Gamma(1) = Gamma(2) = 1 and Gamma(1/2) = sqrt(pi), exactly in logs."""
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        np.testing.assert_allclose(log_gamma(0.5), 0.5 * math.log(math.pi), rtol=0, atol=1e-15)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(ValueError):
                log_gamma(bad)

    @pytest.mark.parametrize("x", [1e7, 3.7e9, 2.5e12])
    def test_large_arguments_use_lgamma(self, x):
        """Above the table cutoff the value matches scipy to relative 1e-13."""
        ref = float(scipy.special.gammaln(x))
        assert abs(log_gamma(x) - ref) <= 1e-13 * abs(ref)


class TestXlogy:
    """The single handler for 0 * ln 0 in likelihood sums."""

    def test_zero_times_log_zero(self):
        assert xlogy(0.0, 0.0) == 0.0

    def test_matches_direct_product(self):
        np.testing.assert_allclose(xlogy(3.0, 0.25), 3.0 * math.log(0.25), rtol=1e-15)


class TestLogSumExp:
    """Order-independent stable reduction ln sum exp."""

    @given(st.lists(finite_floats, min_size=1, max_size=40), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant_bitwise(self, values, rnd):
        """Shuffling the inputs changes nothing, bit for bit."""
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert log_sum_exp(values) == log_sum_exp(shuffled)

    @given(st.lists(finite_floats, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy(self, values):
        ref = np.logaddexp.reduce(np.asarray(values, dtype=float))
        got = log_sum_exp(values)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)

    def test_shift_invariance(self):
        """ln sum exp(x + c) = c + ln sum exp(x) for huge shifts."""
        base = [0.1, -0.4, 1.7]
        for c in (-5000.0, 5000.0):
            np.testing.assert_allclose(
                log_sum_exp([v + c for v in base]), c + log_sum_exp(base), rtol=1e-14
            )

    def test_edge_cases(self):
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf
        with pytest.raises(ValueError):
            log_sum_exp([])
        with pytest.raises(ValueError):
            log_sum_exp([0.0, math.inf])

    def test_nan_term_raises(self):
        """A nan term is a numeric failure, not a nan result."""
        with pytest.raises(NumericError):
            log_sum_exp([0.0, math.nan])
        with pytest.raises(NumericError):
            log_sum_exp(np.array([math.nan, -math.inf]))

    @given(
        st.lists(st.one_of(finite_floats, st.just(-math.inf)), min_size=1, max_size=300),
        st.sampled_from([list, np.array]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_fsum_over_the_array(self, terms, container):
        """Summing a memoryview of the exponentials gives the fsum over the array, bit for bit."""
        values = np.array(terms)
        hi = float(values.max())
        expected = -math.inf if hi == -math.inf else hi + math.log(math.fsum(np.exp(values - hi)))
        assert log_sum_exp(container(terms)) == expected

    def test_array_nan_term_raises(self):
        """Both forms of the array reduction fail on nan instead of returning it."""
        with pytest.raises(NumericError):
            log_sum_exp_array(np.array([0.0, math.nan]))
        with pytest.raises(NumericError):
            log_sum_exp_array(np.array([[0.0, 1.0], [0.0, math.nan]]), axis=1)
        with pytest.raises(NumericError):
            log_sum_exp_array(np.array([[-math.inf, math.nan]]), axis=1)

    def test_array_pos_inf(self):
        """A +inf term reduces to +inf in both forms."""
        assert log_sum_exp_array(np.array([0.0, math.inf])) == math.inf
        assert log_sum_exp_array(np.array([[0.0, math.inf], [0.0, 0.0]]), axis=1)[0] == math.inf

    def test_array_flat_matches_scalar(self, rng):
        values = rng.normal(size=(6, 7)) * 50
        np.testing.assert_allclose(
            log_sum_exp_array(values), log_sum_exp([float(v) for v in values.ravel()]), rtol=1e-14
        )

    def test_array_axis(self, rng):
        values = rng.normal(size=(5, 9)) * 30
        got = log_sum_exp_array(values, axis=1)
        ref = scipy.special.logsumexp(values, axis=1)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)

    def test_array_axis_all_neg_inf_row(self):
        values = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
        got = log_sum_exp_array(values, axis=1)
        assert got[0] == -np.inf
        np.testing.assert_allclose(got[1], LOG_TWO, rtol=1e-15)


class TestCombinatorics:
    """Log factorials and Dirichlet normalizers."""

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_log_multinomial_matches_comb(self, counts):
        """Matches the exact integer multinomial coefficient."""
        n = sum(counts)
        exact = math.factorial(n)
        for c in counts:
            exact //= math.factorial(c)
        np.testing.assert_allclose(log_multinomial(n, counts), math.log(exact), rtol=1e-12)

    def test_log_multinomial_validates_total(self):
        with pytest.raises(ValueError):
            log_multinomial(5, (1, 1))

    def test_beta_two_symbol_identity(self):
        """B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b)."""
        val = log_multivariate_beta((2.5, 4.0))
        ref = math.lgamma(2.5) + math.lgamma(4.0) - math.lgamma(6.5)
        np.testing.assert_allclose(val, ref, rtol=1e-14)

    def test_beta_uniform_is_log_one(self):
        assert abs(log_multivariate_beta((1.0, 1.0))) < 1e-15

    def test_beta_symmetry(self):
        assert log_multivariate_beta((0.5, 2.0, 7.0)) == log_multivariate_beta((7.0, 0.5, 2.0))

    def test_beta_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_multivariate_beta((1.0, 0.0))
