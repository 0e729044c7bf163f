"""Luckiness-weighted regret: tilted suprema, weighted averages, identities."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.special import xlogy

from alphanml import luckiness, regret
from alphanml import (
    AlphaNML,
    CountVector,
    DirichletParams,
    InfeasibleModelError,
    LuckinessAlphaNML,
    LuckinessNML,
    Mixture,
    NML,
    NumericError,
    UnsupportedError,
    alpha_regret,
    average_luckiness_regret,
    conditional_distribution,
    count_vectors,
    kt,
    log_joints,
    log_multiplicities,
    log_normalizer,
    luckiness_alpha_regret,
    luckiness_alpha_regret_supform,
    predictor_kl,
    sibson_mi_alpha,
    tilted_params,
    worst_case_luckiness_regret,
)

J2 = DirichletParams.jeffreys(2)
B22 = DirichletParams((2.0, 2.0))
B32 = DirichletParams((3.0, 2.0))


class TestContainers:
    """Tilted priors of luckiness parameters."""

    def test_tilted_prior_matches_map(self):
        """alpha * (b_i - 1) + 1 for each i."""
        assert tilted_params(2.0, B32).a == (5.0, 3.0)

    def test_infeasible_tilt_raises(self):
        with pytest.raises(InfeasibleModelError):
            tilted_params(3.0, DirichletParams((0.5, 2.0)))


class TestConditionalIdentity:
    """Conditional NML given past counts is luckiness NML with b = past counts + 1."""

    PASTS = [(3, 0), (2, 5), (0, 1, 0), (4, 1, 2), (1, 0, 3, 2)]

    @staticmethod
    def _luckiness(past) -> LuckinessNML:
        return LuckinessNML(DirichletParams(tuple(c + 1.0 for c in past)))

    @pytest.mark.parametrize("past", PASTS)
    def test_next_symbol_is_one_step_luckiness_joint(self, past):
        """At horizon n0 + 1 the conditional is the luckiness NML joint of each one-symbol sequence."""
        m = len(past)
        cnml = conditional_distribution(NML(), CountVector(past))
        lnml = np.exp(log_joints(self._luckiness(past), np.eye(m, dtype=np.int64)))
        np.testing.assert_allclose(cnml, lnml, rtol=1e-12)

    @pytest.mark.parametrize("past", PASTS)
    @pytest.mark.parametrize("h", [2, 4])
    def test_longer_horizon_is_first_symbol_marginal(self, past, h):
        """At horizon n0 + h the conditional is the first-symbol marginal of luckiness NML at length h."""
        m = len(past)
        cnml = conditional_distribution(NML(), CountVector(past), horizon=sum(past) + h)
        counts = count_vectors(h, m)
        joints = log_joints(self._luckiness(past), counts)
        marginal = []
        for x in range(m):
            # a class with c_x >= 1 holds multinomial(c - e_x) sequences that start with x
            rows = counts[:, x] > 0
            rest = counts[rows].copy()
            rest[:, x] -= 1
            marginal.append(math.fsum(np.exp(joints[rows] + log_multiplicities(rest))))
        np.testing.assert_allclose(cnml, marginal, rtol=1e-12)


class TestWorstCase:
    """Max over counts of tilted supremum minus predictor log joint."""

    def test_self_regret_is_log_normalizer(self):
        """The tilted-ML predictor's worst case equals its log normalizing sum."""
        spec = LuckinessNML(B22)
        rep = worst_case_luckiness_regret(spec, B22, 5, 2)
        np.testing.assert_allclose(rep.value_nats, log_normalizer(spec, 5, 2), rtol=1e-12)
        assert rep.maximizer.counts == (0, 5)
        assert rep.kind == "luckiness_worst_case"

    def test_unit_parameters_reduce_to_plain_worst_case(self):
        from alphanml import worst_case_regret

        u = DirichletParams.uniform(2)
        a = worst_case_luckiness_regret(kt(2), u, 6, 2).value_nats
        b = worst_case_regret(kt(2), 6, 2).value_nats
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_tilted_ml_minimizes(self):
        """No competitor has a smaller tilted worst case than the tilted-ML joint."""
        base = worst_case_luckiness_regret(LuckinessNML(B22), B22, 5, 2).value_nats
        for other in (kt(2), Mixture(B22), NML(), AlphaNML(2.0, J2)):
            val = worst_case_luckiness_regret(other, B22, 5, 2).value_nats
            assert val >= base - 1e-12

    def test_subunit_parameters_raise(self):
        with pytest.raises(InfeasibleModelError):
            worst_case_luckiness_regret(kt(2), DirichletParams((0.5, 0.5)), 4, 2)


class TestAverage:
    """Weight-averaged expected regret against the matching mixture."""

    GOLDENS = {
        ((1.0, 1.0), 1): 0.19314718055993435,
        ((1.0, 1.0), 3): 0.4356005054539116,
        ((1.0, 1.0), 4): 0.522307550727656,
        ((2.0, 2.0), 1): 0.10981384722661167,
        ((2.0, 2.0), 3): 0.2753262207700669,
        ((2.0, 2.0), 4): 0.34104558569111915,
    }

    @pytest.mark.parametrize("b,n", sorted(GOLDENS))
    def test_matching_mixture_goldens(self, b, n):
        params = DirichletParams(b)
        val = average_luckiness_regret(Mixture(params), params, n, 2)
        np.testing.assert_allclose(val, self.GOLDENS[(b, n)], atol=1e-9)

    def test_one_step_uniform_closed_form(self):
        """n = 1 with unit weights gives ln 2 - 1/2 for the uniform mixture."""
        u = DirichletParams.uniform(2)
        val = average_luckiness_regret(Mixture(u), u, 1, 2)
        np.testing.assert_allclose(val, math.log(2.0) - 0.5, atol=1e-10)

    def test_decomposes_through_matching_mixture(self, make_exchangeable):
        """avg regret(q) = avg regret(mixture) + KL(mixture, q), to 1e-7."""
        for params in (DirichletParams.uniform(2), B22):
            mix = Mixture(params)
            base = average_luckiness_regret(mix, params, 4, 2)
            for _ in range(5):
                q = make_exchangeable(4, 2)
                total = average_luckiness_regret(q, params, 4, 2)
                split = base + predictor_kl(mix, q, 4, 2)
                np.testing.assert_allclose(total, split, atol=1e-7)

    @pytest.mark.parametrize("params", [DirichletParams.uniform(2), B22, B32, J2])
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_matching_mixture_is_order_one_radius(self, params, n):
        """For the matching mixture the average is I_1 under the same prior, by the same quadrature."""
        assert average_luckiness_regret(Mixture(params), params, n) == sibson_mi_alpha(n, 2, 1.0, params)

    def test_matching_mixture_minimizes(self, make_exchangeable):
        base = average_luckiness_regret(Mixture(B22), B22, 4, 2)
        for _ in range(3):
            q = make_exchangeable(4, 2)
            assert average_luckiness_regret(q, B22, 4, 2) >= base - 1e-9


class TestTiltedAlphaRegret:
    """Order-alpha weighted regret and its radius identity."""

    @pytest.mark.parametrize("b", [B22, B32])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_family_member_attains_radius(self, b, n):
        """Regret of the matching family member = radius under the tilted prior."""
        alpha = 2.0
        spec = LuckinessAlphaNML(alpha, b)
        lhs = luckiness_alpha_regret(spec, b, n, alpha, 2)
        rhs = sibson_mi_alpha(n, 2, alpha, tilted_params(alpha, b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_golden(self):
        spec = LuckinessAlphaNML(2.0, B22)
        val = luckiness_alpha_regret(spec, B22, 3, 2.0, 2)
        np.testing.assert_allclose(val, 0.3244577934324369, atol=1e-9)

    def test_family_member_minimizes(self):
        alpha, b, n = 2.0, B22, 3
        best = luckiness_alpha_regret(LuckinessAlphaNML(alpha, b), b, n, alpha, 2)
        for other in (Mixture(b), LuckinessNML(b), kt(2)):
            val = luckiness_alpha_regret(other, b, n, alpha, 2)
            assert val >= best - 1e-9

    def test_requires_alpha_above_one(self):
        with pytest.raises(ValueError):
            luckiness_alpha_regret(kt(2), B22, 3, 1.0, 2)

    def test_integrand_beyond_the_float_range_is_a_numeric_error(self):
        # e^(hi) of a node overflows a float near alpha = 1e6; it is a failed quadrature, not an OverflowError
        spec = LuckinessAlphaNML(1e6, B22)
        with pytest.raises(NumericError, match="integrand exceeds the float range"):
            luckiness_alpha_regret(spec, B22, 5, 1e6, 2)


class TestSupForm:
    """Supremum-form weighted alpha-regret over the simplex."""

    def test_unit_weights_reduce_to_plain_alpha_regret(self):
        """ln of a flat weight adds nothing to the objective."""
        u = DirichletParams.uniform(2)
        spec = AlphaNML(2.0, J2)
        sup = luckiness_alpha_regret_supform(spec, u, 4, 2, 2.0)
        plain = alpha_regret(spec, 4, 2, 2.0)
        np.testing.assert_allclose(sup.value_nats, plain.value_nats, atol=1e-10)
        assert sup.kind == "luckiness_alpha_sup"

    def test_unsupported_alphabet_fails_before_any_table(self, monkeypatch):
        """m = 4 raises UnsupportedError without building the 585,276-class table of n = 150."""

        def no_table(*args):
            raise AssertionError("a TypeClassTable was built")

        for module in (regret, luckiness):
            monkeypatch.setattr(module, "TypeClassTable", no_table)
        b4 = DirichletParams((1.0, 1.0, 1.0, 1.0))
        with pytest.raises(UnsupportedError, match="supports m in"):
            luckiness_alpha_regret_supform(kt(4), b4, 150, 4, 2.0)

    @pytest.mark.parametrize("b", [(0.8, 1.2), (0.8, 1.2, 1.0)])
    def test_weight_with_a_negative_exponent_has_an_infinite_supremum(self, b):
        """At a vertex with theta_1 = 0 the Dirichlet(b) weight is +inf, though theta_2 = 0 has b_2 > 1."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = luckiness_alpha_regret_supform(kt(len(b)), DirichletParams(b), 5, len(b), 2.0)
        assert rep.value_nats == math.inf

    def test_density_is_inf_only_at_a_zero_under_a_negative_exponent(self):
        density = regret.DirichletDensity(DirichletParams((0.8, 1.2, 1.0)))
        thetas = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.5, 0.5, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = density.log_pdf(thetas)
        terms = xlogy(density.exponents, thetas[3:])
        finite = density.neg_log_norm + terms[:, 0] + terms[:, 1] + terms[:, 2]
        assert out.tolist() == [math.inf, math.inf, -math.inf, *finite.tolist()]

    def test_weighting_shifts_the_maximizer(self):
        """An asymmetric weight pulls the maximizing theta off the corner."""
        spec = Mixture(B22)
        rep = luckiness_alpha_regret_supform(spec, B22, 6, 2, 2.0)
        assert 0.0 < rep.maximizer.theta[0] < 1.0

