"""Brute-force oracles: sequence sums, grid maxima, quadrature."""

from __future__ import annotations

import math

import numpy as np
import pytest

from alphanml import (
    CountVector,
    NumericError,
    UnsupportedError,
    OracleConfig,
    brute_sequence_sum,
    brute_simplex_max,
    log_joint,
    log_ml,
    kt,
    sequence_counts,
    sequence_max_likelihood_log_prob,
    sequential_mixture_log_prob,
    simplex_quadrature,
)


class TestSequenceSum:
    """Streaming log-sum-exp over all m^n sequences."""

    def test_source_probabilities_sum_to_one(self):
        theta = (0.3, 0.7)

        def term(seq):
            return sum(math.log(theta[s - 1]) for s in seq)

        np.testing.assert_allclose(brute_sequence_sum(5, 2, term), 0.0, atol=1e-12)

    def test_counts_uniform_term(self):
        """Constant terms reduce to n ln m."""
        np.testing.assert_allclose(
            brute_sequence_sum(4, 3, lambda seq: 0.0), 4 * math.log(3.0), rtol=1e-13
        )

    def test_enumeration_guard(self):
        def visited(seq):
            raise AssertionError("a sequence was visited")

        for n, m in ((30, 2), (19, 2), (10, 4)):  # 2^19 and 4^10 exceed the guard of 2^18
            with pytest.raises(UnsupportedError, match="enumeration guard"):
                brute_sequence_sum(n, m, visited)

    def test_mixture_joint_cross_module(self):
        """Summing the mixture joint over sequences with fixed counts matches
        the per-sequence joint times the class size."""
        spec = kt(2)

        def term(seq):
            if sequence_counts(seq, 2) != (2, 1):
                return -math.inf
            return sequential_mixture_log_prob(seq, 2, (0.5, 0.5))

        class_mass = brute_sequence_sum(3, 2, term)
        ref = math.log(3.0) + log_joint(spec, CountVector((2, 1)))
        np.testing.assert_allclose(class_mass, ref, rtol=1e-12)


class TestSequenceHelpers:
    """Per-sequence counting and scoring utilities."""

    def test_sequence_counts(self):
        assert sequence_counts((1, 3, 1), 3) == (2, 0, 1)

    def test_sequence_counts_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sequence_counts((1, 4), 3)

    def test_max_likelihood_matches_count_form(self):
        seq = (1, 2, 2, 2, 1)
        ref = log_ml(CountVector.from_sequence(seq, 2))
        np.testing.assert_allclose(sequence_max_likelihood_log_prob(seq, 2), ref, rtol=1e-13)

    def test_sequential_mixture_prediction_closed_form(self):
        """One-symbol updates follow (c_k + a_k) / (t + sum a)."""
        got = sequential_mixture_log_prob((1, 1, 2), 2, (0.5, 0.5))
        ref = math.log(0.5 / 1.0) + math.log(1.5 / 2.0) + math.log(0.5 / 3.0)
        np.testing.assert_allclose(got, ref, rtol=1e-13)


class TestSimplexMax:
    """Dense-grid maximization used to confirm optimizer output."""

    def test_quadratic_peak(self):
        theta, value = brute_simplex_max(
            lambda t: -((t - 0.37) ** 2), config=OracleConfig(grid_points=100_000)
        )
        np.testing.assert_allclose(theta, 0.37, atol=1e-5)
        assert value <= 0.0

    def test_first_maximum_wins_ties(self):
        theta, _ = brute_simplex_max(lambda t: np.zeros_like(t), config=OracleConfig(grid_points=1000))
        assert theta == 0.0


class TestQuadrature:
    """Adaptive integration over the unit interval with endpoint splits."""

    def test_unit_mass(self):
        np.testing.assert_allclose(simplex_quadrature(lambda t: 1.0), 1.0, rtol=1e-10)

    def test_linear_moment(self):
        np.testing.assert_allclose(simplex_quadrature(lambda t: t), 0.5, rtol=1e-10)

    def test_integrable_endpoint_singularity(self):
        """The arcsine density integrates to one despite endpoint blowups."""

        def density(t):
            return 1.0 / (math.pi * math.sqrt(t * (1.0 - t)))

        np.testing.assert_allclose(simplex_quadrature(density), 1.0, rtol=1e-8)

    def test_divergent_integrand_raises_with_partial(self):
        with pytest.raises(NumericError) as info:
            simplex_quadrature(lambda t: 1.0 / t)
        assert hasattr(info.value, "partial")

    def test_nan_integrand_raises(self):
        """A nan estimate fails the finite-and-within-bound test instead of being returned."""
        with pytest.raises(NumericError) as info:
            simplex_quadrature(lambda t: math.nan)
        assert math.isnan(info.value.partial)

    def test_config_frozen(self):
        cfg = OracleConfig()
        with pytest.raises(AttributeError):
            cfg.grid_points = 5
