"""Brute-force oracles: sequence sums, grid maxima, quadrature."""

from __future__ import annotations

import math
import time

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
    sequential_mixture_log_prob,
)
from alphanml.numerics import accept_quadrature
from alphanml.regret import integrate_unit_interval
from test_acceptance import sequence_max_likelihood_log_prob
from theta_reference import nodewise


def _simplex_integral(integrand) -> float:
    """The integral over [0, 1] by ``integrate_unit_interval``, accepted at 1e-10."""
    return accept_quadrature(*integrate_unit_interval(nodewise(integrand)), 1e-10, "the simplex integral")


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

    def test_huge_horizon_is_rejected_before_m_to_the_n_is_built(self):
        started = time.perf_counter()
        with pytest.raises(UnsupportedError, match=r"^m\^n = 3\^1000000000 sequences exceed the brute-force enumeration guard"):
            brute_sequence_sum(10**9, 3, lambda seq: 0.0)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_n_or_m_is_a_value_error(self, bad):
        for n, m in ((bad, 2), (3, bad)):
            with pytest.raises(ValueError, match=r"^need integer n >= 0 and m >= 2, got "):
                brute_sequence_sum(n, m, lambda seq: 0.0)

    def test_whole_float_horizon_is_an_integer(self):
        def term(seq):
            assert type(seq) is tuple and len(seq) == 3
            return 0.1 * sum(seq)

        assert brute_sequence_sum(3.0, 2, term) == brute_sequence_sum(3, 2, term)
        assert brute_sequence_sum(3, 2.0, term) == brute_sequence_sum(3, 2, term)

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

    @pytest.mark.parametrize("points", [-1, 0, 2.5, 8192.0, True, None, "8192"])
    def test_grid_points_must_be_a_positive_integer(self, points):
        with pytest.raises(ValueError, match="grid_points must be an integer >= 1"):
            OracleConfig(grid_points=points)

    def test_one_grid_point_and_numpy_integers_are_accepted(self):
        assert brute_simplex_max(lambda t: t, config=OracleConfig(grid_points=1)) == (1.0, 1.0)
        assert brute_simplex_max(lambda t: -t, config=OracleConfig(grid_points=np.int64(8))) == (0.0, -0.0)


class TestQuadrature:
    """Adaptive integration over the unit interval with endpoint splits."""

    def test_unit_mass(self):
        np.testing.assert_allclose(_simplex_integral(lambda t: 1.0), 1.0, rtol=1e-10)

    def test_linear_moment(self):
        np.testing.assert_allclose(_simplex_integral(lambda t: t), 0.5, rtol=1e-10)

    def test_integrable_endpoint_singularity(self):
        """The arcsine density integrates to one despite endpoint blowups."""

        def density(t):
            return 1.0 / (math.pi * math.sqrt(t * (1.0 - t)))

        np.testing.assert_allclose(_simplex_integral(density), 1.0, rtol=1e-8)

    def test_divergent_integrand_raises_with_partial(self):
        with pytest.raises(NumericError) as info:
            _simplex_integral(lambda t: 1.0 / t)
        assert hasattr(info.value, "partial")

    def test_nan_integrand_raises(self):
        """A nan estimate fails the finite-and-within-bound test instead of being returned."""
        with pytest.raises(NumericError) as info:
            _simplex_integral(lambda t: math.nan)
        assert math.isnan(info.value.partial)

    def test_config_frozen(self):
        cfg = OracleConfig()
        with pytest.raises(AttributeError):
            cfg.grid_points = 5
