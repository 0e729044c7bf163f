"""Joint distributions, normalizers and sequential prediction."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanml import (
    AlphaNML,
    CountVector,
    DirichletParams,
    InfeasibleModelError,
    LuckinessAlphaNML,
    LuckinessNML,
    Mixture,
    NML,
    NormalizerCache,
    PredictorSpec,
    conditional_distribution,
    cumulative_log_loss,
    count_vectors,
    kt,
    laplace,
    log_dirichlet_alpha_integral,
    log_joint,
    log_luckiness_supremum,
    log_ml,
    log_normalizer,
    log_numerators,
    tilted_params,
)
from alphanml.numerics import log_multinomial, log_sum_exp
from alphanml.oracle import sequential_mixture_log_prob
from alphanml.predictors import spec_alphabet_size
from theta_reference import simplex_integral

J2 = DirichletParams.jeffreys(2)
J3 = DirichletParams.jeffreys(3)


def classes(n: int, m: int) -> list[CountVector]:
    """Every count vector of (n, m), from the bar positions of stars and bars, not from ``count_vectors``."""
    out = []
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        edges = (-1, *bars, n + m - 1)
        out.append(CountVector(tuple(edges[i + 1] - edges[i] - 1 for i in range(m))))
    return out


def per_class_log_sum(n: int, m: int, term) -> float:
    """ln sum over the classes of (n, m) of multiplicity * exp(term(count vector)), one class at a time."""
    return log_sum_exp([log_multinomial(n, cv.counts) + term(cv) for cv in classes(n, m)])


class TestParams:
    """Dirichlet parameter containers and the tilt map."""

    @pytest.mark.parametrize("evaluate", [lambda spec: log_numerators(spec, [[1, 2]]), spec_alphabet_size])
    def test_bare_spec_is_not_a_kind(self, evaluate):
        with pytest.raises(TypeError, match="unknown predictor spec"):
            evaluate(PredictorSpec())

    def test_jeffreys_and_uniform(self):
        assert DirichletParams.jeffreys(3).a == (0.5, 0.5, 0.5)
        assert DirichletParams.uniform(2).a == (1.0, 1.0)
        assert kt(2).a.a == (0.5, 0.5)
        assert laplace(3).a.a == (1.0, 1.0, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DirichletParams((1.0, 0.0))

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda c: log_dirichlet_alpha_integral(c, 2.0, J2), r"^counts have m=3, prior has m=2$"),
            (lambda c: log_luckiness_supremum(c, J2), r"^counts have m=3, luckiness has m=2$"),
        ],
        ids=["log_dirichlet_alpha_integral", "log_luckiness_supremum"],
    )
    def test_counts_over_another_alphabet_raise(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(CountVector((1, 2, 0)))

    @pytest.mark.parametrize(
        "thetas",
        [[[0.3], [0.6]], [[0.2, 0.3, 0.5]], [0.3, 0.7], [[[0.3, 0.7]]]],
        ids=["(2, 1)", "(1, 3)", "(2,)", "(1, 1, 2)"],
    )
    def test_log_pdf_takes_rows_of_m_coordinates_only(self, thetas):
        """(P, 1) thetas would broadcast against the m exponents as if each were (t, ..., t)."""
        shape = np.shape(thetas)
        with pytest.raises(ValueError, match=rf"^thetas must have shape \(P, 2\), got {re.escape(str(shape))}$"):
            DirichletParams((0.5, 2.0)).log_pdf(thetas)

    def test_tilt_map(self):
        """c_i = alpha (b_i - 1) + 1 on feasible inputs."""
        t = tilted_params(2.0, DirichletParams((2.0, 3.0)))
        assert t.a == (3.0, 5.0)

    def test_tilt_infeasible(self):
        with pytest.raises(InfeasibleModelError):
            tilted_params(2.0, DirichletParams((0.5, 0.5)))

    def test_lanml_constructor_validates_tilt(self):
        with pytest.raises(InfeasibleModelError):
            LuckinessAlphaNML(2.0, J2)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            AlphaNML(0.5, J2)


class TestBuildingBlocks:
    """Per-count log quantities entering every joint."""

    def test_log_ml_corner_is_zero(self):
        assert log_ml(CountVector((5, 0))) == 0.0
        assert log_ml(CountVector((0, 0, 7))) == 0.0

    def test_log_ml_balanced(self):
        np.testing.assert_allclose(log_ml(CountVector((1, 1))), -2 * math.log(2), rtol=1e-15)

    def test_dirichlet_alpha_integral_matches_quadrature(self):
        """ln of integral of Dirichlet(a) density times likelihood^alpha, m = 2."""
        a = DirichletParams((0.5, 1.5))
        counts = CountVector((3, 2))
        for alpha in (1.0, 2.0, 2.5):
            la = math.lgamma(2.0) - math.lgamma(0.5) - math.lgamma(1.5)

            def integrand(t, alpha=alpha, la=la):
                dens = la - 0.5 * math.log(t) + 0.5 * math.log1p(-t)
                return math.exp(dens + alpha * (3 * math.log(t) + 2 * math.log1p(-t)))

            val = simplex_integral(integrand)
            np.testing.assert_allclose(
                log_dirichlet_alpha_integral(counts, alpha, a), math.log(val), rtol=1e-9
            )

    def test_luckiness_supremum_uniform_is_max_likelihood(self):
        """With unit parameters the tilted supremum is the plain ML value."""
        for cv in classes(5, 2):
            np.testing.assert_allclose(
                log_luckiness_supremum(cv, DirichletParams.uniform(2)), log_ml(cv), atol=1e-12
            )

    def test_luckiness_supremum_nonexistent(self):
        """A parameter below 1 with a zero count leaves no finite supremum."""
        with pytest.raises(InfeasibleModelError):
            log_luckiness_supremum(CountVector((0, 4)), DirichletParams((0.5, 1.0)))


class TestJoints:
    """Normalized joints over sequences of a fixed length."""

    def test_alpha_one_equals_mixture_exactly(self):
        spec_a = AlphaNML(1.0, DirichletParams((0.7, 1.3)))
        spec_m = Mixture(DirichletParams((0.7, 1.3)))
        for cv in classes(5, 2):
            assert log_joint(spec_a, cv) == log_joint(spec_m, cv)

    def test_mixture_normalizer_is_zero(self):
        """Bayes mixtures are already normalized."""
        np.testing.assert_allclose(log_normalizer(Mixture(J2), 7, 2), 0.0, atol=1e-12)

    def test_joint_normalizes(self):
        """sum over sequences of the joint = 1 for every family member."""
        for spec in (Mixture(J3), AlphaNML(2.0, J3), NML(), LuckinessNML(DirichletParams((2.0, 1.5, 1.0)))):
            total = per_class_log_sum(4, 3, lambda cv: log_joint(spec, cv))
            np.testing.assert_allclose(total, 0.0, atol=1e-11)

    def test_nml_equals_unit_luckiness(self):
        """Unit luckiness parameters reproduce the plain normalized ML joint."""
        lnml = LuckinessNML(DirichletParams.uniform(2))
        for cv in classes(6, 2):
            np.testing.assert_allclose(log_joint(NML(), cv), log_joint(lnml, cv), atol=1e-12)

    def test_alpha_interpolates_between_mixture_and_nml(self):
        """At a fixed count vector the joint moves from mixture to NML as alpha grows."""
        cv = CountVector((0, 6))
        mix = log_joint(Mixture(J2), cv)
        nml = log_joint(NML(), cv)
        values = [log_joint(AlphaNML(a, J2), cv) for a in (1.0, 2.0, 4.0, 16.0, 256.0)]
        assert abs(values[0] - mix) < 1e-14
        assert abs(values[-1] - nml) < 1e-2
        gaps = [abs(v - nml) for v in values]
        assert gaps == sorted(gaps, reverse=True)

    def test_exchangeable(self):
        """The joint depends on a sequence only through its counts."""
        spec = AlphaNML(3.0, J2)
        a = cumulative_log_loss(spec, (1, 1, 2, 2, 1))
        b = cumulative_log_loss(spec, (2, 1, 1, 1, 2))
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestNumeratorWidth:
    """log_numerators checks the width of its counts against the alphabet the spec pins."""

    @pytest.mark.parametrize(
        "spec",
        [
            AlphaNML(2.3, DirichletParams((0.7, 1.3))),
            Mixture(J2),
            LuckinessNML(DirichletParams((1.5, 2.0))),
            LuckinessAlphaNML(1.5, DirichletParams((1.5, 2.0))),
        ],
    )
    def test_wrong_width_gets_the_library_message(self, spec):
        with pytest.raises(ValueError, match=r"^spec is over an alphabet of size 2, got m=3$"):
            log_numerators(spec, count_vectors(60, 3))


class TestNormalizerCache:
    """Shared memo for sequence-space normalizers."""

    def test_caches_and_verifies(self):
        cache = NormalizerCache()
        spec = AlphaNML(2.0, J2)
        v1 = log_normalizer(spec, 6, 2, cache=cache)
        assert len(cache) == 1
        v2 = log_normalizer(spec, 6, 2, cache=cache)
        assert v1 == v2
        assert len(cache) == 1
        reference = per_class_log_sum(6, 2, lambda cv: float(log_numerators(spec, [cv.counts])[0]))
        assert math.isclose(v2, reference, rel_tol=1e-12, abs_tol=1e-12)
        cache.clear()
        assert len(cache) == 0 and cache.floats == 0

    def test_distinct_keys(self):
        cache = NormalizerCache()
        log_normalizer(AlphaNML(2.0, J2), 4, 2, cache=cache)
        log_normalizer(AlphaNML(3.0, J2), 4, 2, cache=cache)
        log_normalizer(AlphaNML(2.0, J2), 5, 2, cache=cache)
        assert len(cache) == 3


class TestConditionals:
    """Next-symbol distributions by ratios of horizon-(n+1) joints."""

    def test_mixture_rule_exact(self):
        """Mixture predictions are (c_k + a_k) / (n + sum a), exactly."""
        past = CountVector((3, 1))
        probs = conditional_distribution(Mixture(J2), past)
        np.testing.assert_allclose(probs, [3.5 / 5.0, 1.5 / 5.0], rtol=1e-15)

    def test_alpha_two_golden(self):
        """alpha = 2, Jeffreys, past (1, 0): (0.773533, 0.226467)."""
        probs = conditional_distribution(AlphaNML(2.0, J2), CountVector((1, 0)))
        np.testing.assert_allclose(probs, [0.773532788564, 0.226467211436], atol=1e-10)

    def test_alpha_two_closed_weight(self):
        """alpha = 2, Jeffreys: weights proportional to sqrt((c_k+1/4)(c_k+3/4))."""
        past = CountVector((4, 1, 2))
        probs = conditional_distribution(AlphaNML(2.0, J3), past)
        w = np.sqrt((np.array(past.counts) + 0.25) * (np.array(past.counts) + 0.75))
        np.testing.assert_allclose(probs, w / w.sum(), rtol=1e-12)

    def test_nml_two_step(self):
        """NML at horizon 2 after one observation: (0.8, 0.2)."""
        probs = conditional_distribution(NML(), CountVector((1, 0)))
        np.testing.assert_allclose(probs, [0.8, 0.2], rtol=1e-12)

    @given(
        st.integers(min_value=1, max_value=5),
        st.sampled_from([1.0, 2.0, 3.0, 2.5]),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_softmax_of_joint_ratios(self, n, alpha, seed):
        """Conditionals equal normalized one-step-extended joints, to 1e-12."""
        gen = np.random.default_rng(seed)
        counts = gen.multinomial(n, [0.5, 0.5])
        past = CountVector(tuple(int(c) for c in counts))
        spec = AlphaNML(alpha, J2)
        probs = conditional_distribution(spec, past)
        lead = np.array([log_joint(spec, past.with_symbol(k)) for k in (1, 2)])
        ref = np.exp(lead - np.logaddexp.reduce(lead))
        np.testing.assert_allclose(probs, ref, atol=1e-12)

    def test_integer_and_real_alpha_paths_agree(self):
        """Integer alpha's product-of-logs route equals a softmax of Gamma ratios."""
        past = CountVector((2, 3, 1))
        a = (0.5, 1.0, 2.0)
        alpha = 3.0
        spec = AlphaNML(alpha, DirichletParams(a))
        fast = conditional_distribution(spec, past)
        lead = np.array(
            [(math.lgamma(alpha * c + ak + alpha) - math.lgamma(alpha * c + ak)) / alpha for c, ak in zip(past.counts, a)]
        )
        slow = np.exp(lead - np.logaddexp.reduce(lead))
        np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_sums_to_one(self):
        for spec in (Mixture(J3), AlphaNML(2.5, J3), NML(), LuckinessNML(DirichletParams((2.0, 2.0, 2.0)))):
            probs = conditional_distribution(spec, CountVector((2, 0, 1)))
            np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-14)

    def test_longer_horizon_marginalizes(self):
        """Horizon h > n+1 sums the joint over unseen suffixes."""
        spec = AlphaNML(2.0, J2)
        past = CountVector((1, 0))
        probs = conditional_distribution(spec, past, horizon=3)
        nums = []
        for k in (1, 2):
            ext = past.with_symbol(k)
            total = -math.inf
            for j in (1, 2):
                total = np.logaddexp(total, log_joint(spec, ext.with_symbol(j)))
            nums.append(total)
        ref = np.exp(np.array(nums) - np.logaddexp.reduce(np.array(nums)))
        np.testing.assert_allclose(probs, ref, atol=1e-12)

    def test_horizon_shorter_than_past_rejected(self):
        with pytest.raises(ValueError):
            conditional_distribution(Mixture(J2), CountVector((2, 1)), horizon=2)


class TestChainRule:
    """Cumulative log loss telescopes to the joint at the full horizon."""

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.5])
    def test_telescopes_to_joint(self, alpha):
        seq = (1, 2, 2, 1, 2)
        spec = AlphaNML(alpha, J2)
        loss = cumulative_log_loss(spec, seq)
        ref = -log_joint(spec, CountVector.from_sequence(seq, 2))
        np.testing.assert_allclose(loss, ref, rtol=1e-11)

    def test_mixture_chain_matches_sequential_oracle(self):
        """Mixture losses match an independent sequential-update oracle."""
        seq = (1, 2, 1, 1)
        loss = cumulative_log_loss(kt(2), seq)
        ref = -sequential_mixture_log_prob(seq, 2, (0.5, 0.5))
        np.testing.assert_allclose(loss, ref, rtol=1e-12)
        np.testing.assert_allclose(loss, 3.242592351485517, rtol=1e-12)

    def test_permutation_invariance_of_total_loss(self):
        """Total loss at the full horizon depends only on final counts."""
        spec = NML()
        a = cumulative_log_loss(spec, (1, 1, 2, 3, 3, 2), m=3)
        b = cumulative_log_loss(spec, (3, 2, 1, 3, 2, 1), m=3)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lattice_matches_enumerated_conditionals(self, data):
        """The backward lattice pass equals the per-step enumeration route, to 1e-12."""
        m = data.draw(st.sampled_from([2, 3]))
        weights = st.floats(min_value=0.3, max_value=3.0)
        prior = DirichletParams(tuple(data.draw(st.lists(weights, min_size=m, max_size=m))))
        alpha = data.draw(st.floats(min_value=1.05, max_value=4.0).filter(lambda a: not a.is_integer()))
        b_lucky = DirichletParams(tuple(data.draw(st.lists(st.floats(1.0, 3.0), min_size=m, max_size=m))))
        b_tilt = DirichletParams(tuple(data.draw(st.lists(st.floats(0.8, 3.0), min_size=m, max_size=m))))
        spec = data.draw(st.sampled_from([
            Mixture(prior), AlphaNML(alpha, prior), NML(), LuckinessNML(b_lucky), LuckinessAlphaNML(alpha, b_tilt),
        ]))
        seq = data.draw(st.lists(st.integers(1, m), max_size=10))
        horizon = len(seq) + data.draw(st.sampled_from([0, 3]))
        loss = cumulative_log_loss(spec, seq, m, horizon=horizon)
        past = CountVector.zeros(m)
        steps = []
        for x in seq:
            steps.append(-math.log(conditional_distribution(spec, past, horizon=horizon)[x - 1]))
            past = past.with_symbol(x)
        np.testing.assert_allclose(loss, math.fsum(steps), rtol=1e-12, atol=0.0)
        if seq and horizon == len(seq):  # at n = 0, -log_joint is 0 only up to rounding
            np.testing.assert_allclose(loss, -log_joint(spec, past), rtol=1e-10, atol=0.0)

    def test_empty_sequence_costs_nothing(self):
        assert cumulative_log_loss(AlphaNML(2.0, J2), ()) == 0.0
        assert cumulative_log_loss(NML(), [], m=3, horizon=4) == 0.0

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cumulative_log_loss(AlphaNML(2.0, J2), (1, 2), m=3)

    def test_infeasible_luckiness_rejected(self):
        with pytest.raises(InfeasibleModelError):
            cumulative_log_loss(LuckinessNML(DirichletParams((0.5, 2.0))), (1, 2, 2))

    def test_horizon_shorter_than_sequence_rejected(self):
        with pytest.raises(ValueError):
            cumulative_log_loss(kt(2), (1, 2, 1), horizon=2)

    def test_symbol_outside_the_alphabet_rejected(self):
        with pytest.raises(ValueError, match=r"^symbol 3 outside alphabet 1..2$"):
            cumulative_log_loss(kt(2), [1, 3, 2])

    def test_non_whole_symbol_rejected(self):
        """A fractional symbol is an error, not truncated to the symbol below it."""
        with pytest.raises(ValueError, match="whole numbers"):
            cumulative_log_loss(kt(2), [1.7, 2, True])
        assert cumulative_log_loss(kt(2), [1.0, 2, True]) == cumulative_log_loss(kt(2), [1, 2, 1])
