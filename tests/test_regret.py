"""Worst-case, average and alpha-regret, with closed forms and asymptotes."""

from __future__ import annotations

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from alphanml import (
    AlphaNML,
    DirichletParams,
    LuckinessAlphaNML,
    LuckinessNML,
    Mixture,
    NML,
    NumericError,
    SimplexPoint,
    TypeClassTable,
    UnsupportedError,
    alpha_regret,
    average_luckiness_regret,
    asymptotic_min_alpha_regret,
    asymptotic_rmax,
    average_regret,
    figure1_table,
    kt,
    laplace,
    infinity_split_check,
    alpha_split_check,
    log_joint,
    log_joints,
    log_sum_exp,
    log_sum_exp_array,
    luckiness_alpha_regret,
    luckiness_alpha_regret_supform,
    predictor_kl,
    renyi_divergence_vs_predictor,
    sibson_mi_alpha,
    sibson_mi_infinity,
    w_alpha_closed,
    w_alpha_direct,
    worst_case_luckiness_regret,
    worst_case_regret,
)
from alphanml import cli, regret
from alphanml.predictors import DEFAULT_CACHE
from alphanml.regret import _class_table
from theta_reference import batch_route, maximize_on_simplex

J2 = DirichletParams.jeffreys(2)
J3 = DirichletParams.jeffreys(3)


class TestWorstCase:
    """Max over type classes of ln ML minus ln joint."""

    def test_kt_golden(self):
        rep = worst_case_regret(kt(2), 10, 2)
        np.testing.assert_allclose(rep.value_nats, 1.7361522965964522, rtol=1e-12)
        assert rep.maximizer.counts == (0, 10)
        np.testing.assert_allclose(rep.value_bits, rep.value_nats / math.log(2), rtol=1e-15)

    def test_nml_regret_is_flat_log_normalizer(self):
        """For NML the regret equals the log normalizing sum on every class."""
        rep = worst_case_regret(NML(), 10, 2)
        np.testing.assert_allclose(rep.value_nats, sibson_mi_infinity(10, 2), rtol=1e-12)
        assert rep.maximizer.counts == (0, 10)

    def test_nml_tiny_horizons(self):
        """ln 2 at n = 1 and ln(5/2) at n = 2 for two symbols."""
        np.testing.assert_allclose(
            worst_case_regret(NML(), 1, 2).value_nats, math.log(2.0), rtol=1e-14
        )
        np.testing.assert_allclose(
            worst_case_regret(NML(), 2, 2).value_nats, math.log(2.5), rtol=1e-14
        )

    def test_nml_is_minimax(self):
        """No family member beats NML's worst case."""
        base = worst_case_regret(NML(), 8, 2).value_nats
        for spec in (kt(2), AlphaNML(2.0, J2), AlphaNML(5.0, J2)):
            assert worst_case_regret(spec, 8, 2).value_nats >= base - 1e-12

    def test_monotone_decreasing_in_alpha(self):
        values = [worst_case_regret(AlphaNML(a, J2), 12, 2).value_nats for a in (1.0, 2.0, 4.0, 8.0)]
        assert values == sorted(values, reverse=True)
        assert all(v > 0 for v in values)

    @pytest.mark.parametrize("spec", [kt(2), kt(3), Mixture(DirichletParams((0.3, 2.2))), AlphaNML(1.0, J2)])
    def test_dirichlet_mixture_gives_the_empty_sequence_probability_one(self, spec):
        """ln B(a) - ln B(a) would round a few ulps off 0; rows with counts keep their values."""
        m = spec.a.m
        rows = [[0] * m, [3] + [1] * (m - 1)]
        assert log_joints(spec, rows).tolist() == [0.0, float(log_joints(spec, rows[1:])[0])]
        assert worst_case_regret(spec, 0, m).value_nats == 0.0

    def test_accepts_callable_joint(self, make_exchangeable):
        q = make_exchangeable(4, 2)
        rep = worst_case_regret(q, 4, 2)
        assert math.isfinite(rep.value_nats)
        assert rep.value_nats > 0


class TestDecompositions:
    """Identities splitting the worst-case regret into radius plus remainder."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize(
        "spec_builder",
        [lambda m: Mixture(DirichletParams.jeffreys(m)), lambda m: AlphaNML(2.0, DirichletParams.jeffreys(m))],
    )
    def test_infinity_split(self, m, spec_builder):
        """Worst case = log normalizing sum + flat-top divergence, to 1e-10."""
        lhs, rhs = infinity_split_check(spec_builder(m), 6, m)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 5.0])
    @pytest.mark.parametrize("m", [2, 3])
    def test_alpha_split(self, alpha, m):
        """Worst case = ((alpha-1)/alpha) radius + remainder, to 1e-10."""
        lhs, rhs = alpha_split_check(alpha, 5, m, DirichletParams.jeffreys(m))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_alpha_split_golden(self):
        """Frozen worst-case value for alpha=2.5, n=5, m=2 under Jeffreys."""
        lhs, _ = alpha_split_check(2.5, 5, 2, J2)
        np.testing.assert_allclose(lhs, 1.315106594195323, rtol=1e-12)


class TestRemainderClosedForm:
    """Gamma-ratio closed form of the worst-case remainder, Jeffreys prior."""

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
    @pytest.mark.parametrize("nm", [(4, 2), (20, 3), (12, 4)])
    def test_matches_direct_maximum(self, alpha, nm):
        n, m = nm
        direct = w_alpha_direct(n, m, alpha, DirichletParams.jeffreys(m))
        np.testing.assert_allclose(w_alpha_closed(n, m, alpha), direct.value, atol=1e-10)

    def test_maximum_sits_at_a_corner(self):
        res = w_alpha_direct(4, 2, 2.0, J2)
        assert max(res.maximizer.counts) == 4
        assert res.maximizer.counts == (0, 4)
        np.testing.assert_allclose(res.value, 0.8138502941844769, rtol=1e-12)

    def test_non_jeffreys_rejected(self):
        with pytest.raises(UnsupportedError):
            w_alpha_closed(4, 2, 2.0, DirichletParams.uniform(2))


class TestInformationRadius:
    """Prior-to-source information radius of order alpha."""

    def test_order_infinity_small_horizons(self):
        """ln(5/2) at n = m = 2 and ln(9/2) at n = 2, m = 3."""
        np.testing.assert_allclose(sibson_mi_infinity(2, 2), math.log(2.5), rtol=1e-12)
        np.testing.assert_allclose(sibson_mi_infinity(2, 3), math.log(4.5), rtol=1e-12)

    def test_order_one_golden(self):
        np.testing.assert_allclose(
            sibson_mi_alpha(3, 2, 1.0, J2), 0.6078069436032765, atol=1e-9
        )

    def test_order_one_three_symbols_one_step(self):
        """At n = 1, I_1 = sum_i E[theta_i ln theta_i] - (a_i/A) ln(a_i/A), where

        E[theta_i ln theta_i] = (a_i/A)(psi(a_i + 1) - psi(A + 1)).
        """
        a = (0.7, 1.2, 2.1)
        total = sum(a)
        psi = special.digamma
        expected = sum(x / total * (psi(x + 1.0) - psi(total + 1.0) - math.log(x / total)) for x in a)
        assert math.isclose(sibson_mi_alpha(1, 3, 1.0, DirichletParams(a)), expected, rel_tol=1e-13)

    def test_order_two_golden(self):
        np.testing.assert_allclose(
            sibson_mi_alpha(3, 2, 2.0, J2), 0.7375968953536434, rtol=1e-12
        )

    @pytest.mark.parametrize("call", [sibson_mi_alpha, w_alpha_direct])
    def test_prior_over_another_alphabet_raises(self, call):
        with pytest.raises(ValueError, match=r"^prior has m=2, got m=3$"):
            call(4, 3, 2.0, J2)

    def test_monotone_in_alpha(self):
        values = [sibson_mi_alpha(4, 2, a, J2) for a in (1.5, 2.0, 4.0, 16.0)]
        values.append(sibson_mi_infinity(4, 2))
        assert values == sorted(values)


class TestDefaultCache:
    """The information radius and the checks built on it memoize in DEFAULT_CACHE; a warm call repeats a cold one."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: infinity_split_check(kt(2), 12, 2),
            lambda: alpha_split_check(2.0, 12, 2, J2),
            lambda: figure1_table([6, 12], [1.0, 2.0, 3.0]),
            lambda: sibson_mi_infinity(12, 3),
            lambda: sibson_mi_alpha(12, 3, 2.5, J3),
        ],
        ids=["infinity_split", "alpha_split", "figure1", "sibson_infinity", "sibson_alpha"],
    )
    def test_fills_default_cache(self, call):
        DEFAULT_CACHE.clear()
        cold = call()
        assert len(DEFAULT_CACHE) > 0
        assert call() == cold


class TestAlphaRegret:
    """sup over theta of the order-alpha divergence from source to predictor."""

    def test_lower_bound_by_radius(self):
        """The matching-order regret of the family member is at least the radius."""
        for a in (J2, DirichletParams.uniform(2), DirichletParams((2.0, 2.0))):
            for n in (1, 3, 6):
                val = alpha_regret(AlphaNML(2.0, a), n, 2, 2.0).value_nats
                assert val >= sibson_mi_alpha(n, 2, 2.0, a) - 1e-9

    def test_golden_and_kind(self):
        rep = alpha_regret(AlphaNML(2.0, J2), 3, 2, 2.0)
        np.testing.assert_allclose(rep.value_nats, 1.1133254952156513, rtol=1e-10)
        assert rep.kind == "alpha"
        assert isinstance(rep.maximizer, SimplexPoint)

    def test_average_is_order_one(self):
        rep_a = average_regret(kt(2), 3, 2)
        rep_b = alpha_regret(kt(2), 3, 2, 1.0)
        assert rep_a.kind == rep_b.kind == "average"
        np.testing.assert_allclose(rep_a.value_nats, rep_b.value_nats, rtol=1e-12)
        np.testing.assert_allclose(rep_a.value_nats, 1.1631508098056809, rtol=1e-10)

    def test_unsupported_alphabet(self):
        with pytest.raises(UnsupportedError):
            alpha_regret(kt(4), 3, 4, 2.0)

    def test_three_symbols_runs(self):
        rep = alpha_regret(AlphaNML(2.0, J3), 3, 3, 2.0)
        assert rep.value_nats >= sibson_mi_alpha(3, 3, 2.0, J3) - 1e-9


# every function that takes a regret order, called at that order
ORDER_CALLS = {
    "rmax": lambda alpha: asymptotic_rmax(10, 2, alpha),
    "min_alpha": lambda alpha: asymptotic_min_alpha_regret(10, 2, alpha),
    "w_closed": lambda alpha: w_alpha_closed(10, 2, alpha),
    "sibson": lambda alpha: sibson_mi_alpha(5, 2, alpha, J2),
    "renyi": lambda alpha: renyi_divergence_vs_predictor((0.3, 0.7), kt(2), 5, alpha),
    "alpha_regret": lambda alpha: alpha_regret(kt(2), 5, 2, alpha),
    "luckiness": lambda alpha: luckiness_alpha_regret(kt(2), J2, 5, alpha),
    "supform": lambda alpha: luckiness_alpha_regret_supform(kt(2), J2, 5, 2, alpha),
}


class TestNonFiniteOrders:
    """nan is never an order; inf is one only where a formula takes its limit (``asymptotic_rmax``, see TestAsymptotes)."""

    @pytest.mark.parametrize("name", list(ORDER_CALLS))
    def test_nan_order_raises(self, name):
        with pytest.raises(ValueError, match=r"^alpha must be >=? 1, got nan$"):
            ORDER_CALLS[name](math.nan)

    @pytest.mark.parametrize("name", [name for name in ORDER_CALLS if name != "rmax"])
    def test_infinite_order_raises_where_the_order_must_be_finite(self, name):
        with pytest.raises(ValueError, match=r"^alpha must be finite, got inf$"):
            ORDER_CALLS[name](math.inf)

    def test_orders_below_one_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"^alpha must be >= 1, got -inf$"):
            alpha_regret(kt(2), 5, 2, -math.inf)
        with pytest.raises(ValueError, match=r"^alpha must be > 1, got 1.0$"):
            asymptotic_min_alpha_regret(10, 2, 1.0)

    @pytest.mark.parametrize("theta", [(math.nan, 1.0), (0.5, math.nan, 0.5), (math.inf, 0.0), (-math.inf, 1.0)])
    def test_simplex_point_rejects_non_finite_coordinates(self, theta):
        with pytest.raises(ValueError, match="outside"):
            SimplexPoint(theta)

    @pytest.mark.parametrize(
        ("theta", "message"), [((1.0,), "^simplex points need dimension >= 2$"), ((0.5, 0.6), "^coordinates must sum to 1")]
    )
    def test_simplex_point_rejects_a_point_off_the_simplex(self, theta, message):
        with pytest.raises(ValueError, match=message):
            SimplexPoint(theta)


class TestSimplexMaximization:
    """Grid plus local refinement on the 2- and 3-simplex."""

    def test_two_symbol_quadratic(self):
        point, value = maximize_on_simplex(2, lambda th: -((th[:, 0] - 0.3) ** 2))
        np.testing.assert_allclose(point.theta[0], 0.3, atol=1e-8)
        np.testing.assert_allclose(value, 0.0, atol=1e-15)

    def test_three_symbol_quadratic(self):
        target = np.array([0.2, 0.3, 0.5])

        def objective(th):
            return -np.sum((th - target) ** 2, axis=1)

        point, value = maximize_on_simplex(3, objective)
        np.testing.assert_allclose(point.as_array(), target, atol=1e-4)
        assert value > -1e-7

    def test_corner_maximum(self):
        point, _ = maximize_on_simplex(2, lambda th: th[:, 1])
        np.testing.assert_allclose(point.theta, (0.0, 1.0), atol=1e-12)

    def test_larger_alphabets_rejected(self):
        with pytest.raises(UnsupportedError):
            maximize_on_simplex(4, lambda th: th[:, 0])


def _per_cell_log_ptheta(table, thetas):
    """One xlogy per (theta, class, symbol) cell: the oracle for ln p_theta."""
    out = np.zeros((thetas.shape[0], table.log_mult.size))
    for i in range(table.m):
        out += special.xlogy(table.columns[i][None, :], thetas[:, i][:, None])
    return out


def _per_cell_kl(table, thetas):
    lp = _per_cell_log_ptheta(table, thetas)
    weight = np.exp(table.log_mult[None, :] + lp)
    gap = np.where(np.isfinite(lp), lp - table.log_joint[None, :], 0.0)
    return np.sum(weight * gap, axis=1)


def _per_cell_renyi(table, thetas, alpha):
    if alpha == 1.0:
        return _per_cell_kl(table, thetas)
    lp = _per_cell_log_ptheta(table, thetas)
    inner = table.log_mult[None, :] + alpha * lp + (1.0 - alpha) * table.log_joint[None, :]
    return log_sum_exp_array(inner, axis=1) / (alpha - 1.0)


# coordinates before normalization: exact zeros and ones, subnormals and the rest of [0, 1]
_coordinate = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def _table_and_thetas(draw):
    m = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(min_value=0, max_value=14 if m == 2 else 9))
    prior = DirichletParams(tuple(draw(st.floats(min_value=0.2, max_value=3.0)) for _ in range(m)))
    predictor = draw(st.sampled_from((Mixture(prior), AlphaNML(2.5, prior), NML())))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        row = np.array([draw(_coordinate) for _ in range(m)])
        if draw(st.booleans()):
            row = np.eye(m)[draw(st.integers(min_value=0, max_value=m - 1))]
        total = row.sum()
        rows.append(row / total if total > 0.0 else np.eye(m)[0])
    # plus generic interior points, whose logs exercise every rounding case of ln
    rows.extend(np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32))).dirichlet(np.ones(m), size=32))
    return TypeClassTable(n, m, predictor), np.array(rows)


class TestTypeClassTable:
    """Vectorized per-class tables used by the simplex objectives."""

    @given(_table_and_thetas(), st.sampled_from((1.0, 1.5, 2.0, 3.7, 12.0)))
    @settings(max_examples=150, deadline=None)
    def test_objectives_equal_the_per_cell_xlogy_formula(self, case, alpha):
        """One log per coordinate gives the per-cell xlogy values bit for bit."""
        table, thetas = case
        with np.errstate(all="ignore"):
            assert np.array_equal(batch_route(table, thetas), _per_cell_log_ptheta(table, thetas))
            assert np.array_equal(batch_route(table, thetas, 1.0), _per_cell_kl(table, thetas))
            assert np.array_equal(batch_route(table, thetas, alpha), _per_cell_renyi(table, thetas, alpha))

    def test_zero_coordinate_rule(self):
        """0 * ln 0 = 0 where a class has no count of a zero-probability symbol; -inf where it has."""
        table = TypeClassTable(2, 3, kt(3))
        lp = batch_route(table, np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))
        rows = [tuple(int(c) for c in row) for row in _class_table(2, 3).counts]
        expected = {
            (0, 0, 2): (-math.inf, -math.inf),
            (0, 1, 1): (-math.inf, -math.inf),
            (0, 2, 0): (2 * math.log(0.5), -math.inf),
            (1, 0, 1): (-math.inf, -math.inf),
            (1, 1, 0): (2 * math.log(0.5), -math.inf),
            (2, 0, 0): (2 * math.log(0.5), 0.0),
        }
        for k, row in enumerate(rows):
            assert (lp[0, k], lp[1, k]) == expected[row]

    def test_source_probabilities_normalize(self, rng):
        table = TypeClassTable(6, 2, kt(2))
        thetas = rng.dirichlet((1.0, 1.0), size=5)
        lp = batch_route(table, thetas)
        totals = [log_sum_exp(list(table.log_mult + lp[i])) for i in range(5)]
        np.testing.assert_allclose(totals, 0.0, atol=1e-10)

    def test_order_one_is_kl(self, rng):
        table = TypeClassTable(5, 2, kt(2))
        thetas = rng.dirichlet((2.0, 2.0), size=4)
        np.testing.assert_allclose(
            [table._point(theta, 1.0) for theta in thetas.tolist()], _per_cell_kl(table, thetas), rtol=1e-12
        )


class TestAsymptotes:
    """Large-horizon formulas for worst-case and radius growth."""

    def test_rmax_golden_values(self):
        np.testing.assert_allclose(asymptotic_rmax(100, 2, 1.0), 2.874950035918746, rtol=1e-14)
        np.testing.assert_allclose(asymptotic_rmax(100, 2, 2.0), 2.7016632407787595, rtol=1e-14)

    def test_rmax_order_infinity_drops_half_log_two_per_symbol(self):
        gap = asymptotic_rmax(50, 2, 1.0) - asymptotic_rmax(50, 2, math.inf)
        np.testing.assert_allclose(gap, 0.5 * math.log(2), rtol=1e-14)

    def test_min_alpha_regret_below_rmax(self):
        for alpha in (2.0, 4.0):
            assert asymptotic_min_alpha_regret(400, 2, alpha) < asymptotic_rmax(400, 2, alpha)

    def test_min_alpha_regret_golden(self):
        np.testing.assert_allclose(
            asymptotic_min_alpha_regret(100, 2, 2.0), 2.1818028553588005, rtol=1e-14
        )

    @pytest.mark.parametrize("formula", [asymptotic_rmax, asymptotic_min_alpha_regret])
    def test_empty_horizon_is_a_value_error(self, formula):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            formula(0, 2, 2.0)

    def test_rmax_tracks_finite_value(self):
        """The formula approaches the exact worst case as n grows."""
        gaps = [
            worst_case_regret(kt(2), n, 2).value_nats - asymptotic_rmax(n, 2, 1.0)
            for n in (50, 200)
        ]
        assert all(g > 0 for g in gaps)
        assert gaps[1] < gaps[0]


class TestClosedFormArguments:
    """The closed forms check (n, m) as the scans do, instead of returning a value for a horizon or alphabet
    that has none."""

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda: asymptotic_rmax(10, 1, 2.0), "alphabet size m must be an integer >= 2, got 1"),
            (lambda: asymptotic_rmax(math.nan, 2, 2.0), "n must be a non-negative integer, got nan"),
            (lambda: asymptotic_min_alpha_regret(2.5, 2, 2.0), "n must be a non-negative integer, got 2.5"),
            (lambda: asymptotic_rmax(-1, 2, 2.0), "n must be >= 1, got -1"),
            (lambda: w_alpha_closed(5, 1, 2.0), "alphabet size m must be an integer >= 2, got 1"),
            (lambda: w_alpha_closed(math.inf, 2, 2.0), "n must be a non-negative integer, got inf"),
            (lambda: figure1_table([0], [1.0]), "n must be >= 1, got 0"),
            (lambda: figure1_table([10, -3], [1.0]), "n must be >= 1, got -3"),
        ],
        ids=["rmax_m1", "rmax_nan", "min_alpha_fractional", "rmax_negative", "w_closed_m1", "w_closed_inf",
             "figure1_zero", "figure1_negative"],
    )
    def test_invalid_horizon_or_alphabet_is_a_value_error(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_whole_float_arguments_give_the_integer_values(self):
        assert asymptotic_rmax(10.0, 3.0, 2.0) == asymptotic_rmax(10, 3, 2.0)
        assert w_alpha_closed(5.0, 2.0, 2.0, J2) == w_alpha_closed(5, 2, 2.0)

    def test_an_invalid_order_is_refused_before_the_prior(self):
        with pytest.raises(ValueError, match=r"^alpha must be >= 1, got 0.5$"):
            w_alpha_closed(5, 2, 0.5, DirichletParams.uniform(2))


class TestComparisonTable:
    """Percent worst-case increase over the minimax baseline."""

    def test_small_table_goldens(self):
        rows = figure1_table([10], [1.0, 2.0, 3.0])
        percents = [r["percent_increase"] for r in rows]
        np.testing.assert_allclose(
            percents, [12.8058909129, 6.4271609826, 4.28695538412], atol=1e-6
        )

    def test_rows_complete(self):
        rows = figure1_table([5, 10], [1.0, 2.0])
        assert [(r["n"], r["alpha"]) for r in rows] == [(5, 1.0), (5, 2.0), (10, 1.0), (10, 2.0)]
        for r in rows:
            assert r["regret_nats"] > r["nml_regret_nats"] > 0
            assert r["percent_increase"] > 0


class TestPredictorDivergence:
    """KL between two predictors on sequence space."""

    def test_self_divergence_zero(self):
        np.testing.assert_allclose(predictor_kl(kt(2), kt(2), 5, 2), 0.0, atol=1e-12)

    def test_nonnegative_and_asymmetric(self):
        ab = predictor_kl(kt(2), NML(), 5, 2)
        ba = predictor_kl(NML(), kt(2), 5, 2)
        assert ab > 0 and ba > 0
        assert abs(ab - ba) > 1e-6


class TestTieBreaking:
    """Flat maxima report the lexicographically smallest argument."""

    def test_symmetric_alpha_regret_reports_first_vertex(self):
        """Both vertices of a symmetric m = 2 profile tie; theta = (0, 1) wins."""
        rep = alpha_regret(AlphaNML(1.5, J2), 20, 2, 1.5)
        assert rep.maximizer.theta == (0.0, 1.0)

    def test_symmetric_average_regret_reports_first_vertex(self):
        rep = average_regret(kt(2), 20, 2)
        assert rep.maximizer.theta == (0.0, 1.0)


def _kt_without_class_2_3(cv):
    """KT joint, except that the type class (2, 3) gets probability zero."""
    if cv.counts == (2, 3):
        return -math.inf
    return log_joint(kt(2), cv)


class TestZeroProbabilityClasses:
    """A predictor that rules out an achievable class has infinite regret."""

    def test_worst_case_is_infinite_at_that_class(self):
        rep = worst_case_regret(_kt_without_class_2_3, 5, 2)
        assert rep.value_nats == math.inf
        assert rep.maximizer.counts == (2, 3)

    def test_luckiness_worst_case_is_infinite_at_that_class(self):
        rep = worst_case_luckiness_regret(_kt_without_class_2_3, DirichletParams((1.0, 1.0)), 5, 2)
        assert rep.value_nats == math.inf
        assert rep.maximizer.counts == (2, 3)

    def test_infinity_split_both_sides_infinite(self):
        assert infinity_split_check(_kt_without_class_2_3, 5, 2) == (math.inf, math.inf)

    def test_tilted_alpha_regret_raises_instead_of_nan(self):
        """q = 0 on a class makes the alpha > 1 integrand nan; that is a NumericError, not a value."""
        with pytest.raises(NumericError):
            luckiness_alpha_regret(_kt_without_class_2_3, DirichletParams((1.5, 2.0)), 5, 2.0)

    def test_average_luckiness_regret_raises_instead_of_inf(self):
        with pytest.raises(NumericError):
            average_luckiness_regret(_kt_without_class_2_3, DirichletParams((1.5, 2.0)), 5)

    def test_renyi_cell_of_zero_over_zero_raises_without_a_warning(self):
        """Where p_theta (at a vertex) and q are both 0, alpha > 1 meets -inf + inf: a NumericError, no warning first.

        pyproject makes alphanml.regret's RuntimeWarnings errors, so a warning before the raise fails here.
        """

        def joint(cv):
            return -math.inf if cv.counts[0] == 0 else log_joint(kt(2), cv)

        message = r"^nan among the Renyi divergence's terms: p_theta and q are both 0 on a class$"
        with pytest.raises(NumericError, match=message):
            alpha_regret(joint, 1, 2, 1.0 + 2**-20)


def _warnings(call) -> list:
    """The warnings a call emits, whether it returns or raises NumericError."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except NumericError:
            pass
    return caught


class TestAverageWarnings:
    """A Dirichlet average is silent; one that is not finite raises NumericError with its value, not a warning."""

    # priors far below 1 at one endpoint, where a quadrature over theta warns of its singular density
    @pytest.mark.parametrize(
        "call, value",
        [
            (lambda: sibson_mi_alpha(11, 2, 1.0, DirichletParams((1.0, 0.44))), 0.9414689668039357),
            (lambda: sibson_mi_alpha(9, 2, 1.0, DirichletParams((2.09, 0.23))), 0.539106921900227),
            (lambda: average_luckiness_regret(NML(), DirichletParams((2.09, 0.23)), 9), 1.1878510472164245),
        ],
        ids=["radius-n11", "radius-n9", "average-luckiness-n9"],
    )
    def test_average_emits_no_warning(self, call, value):
        assert _warnings(call) == []
        assert math.isclose(call(), value, rel_tol=1e-9)

    def test_infinite_average_raises_without_a_warning(self):
        call = lambda: luckiness_alpha_regret(_kt_without_class_2_3, DirichletParams((1.5, 2.0)), 5, 2.0)  # noqa: E731
        assert _warnings(call) == []
        with pytest.raises(NumericError, match=r"^the average over Dirichlet\(2.0, 3.0\) of order 2.0 is inf$") as info:
            call()
        assert info.value.partial == math.inf

    @given(st.integers(0, 14), st.data())
    @settings(max_examples=30, deadline=None)
    def test_average_cases_emit_no_warning(self, n, data):
        # the draws of tests/test_objective_rows.py::TestDirichletAverages
        floats = st.one_of(st.just(1.0), st.floats(0.2, 3.0))
        params = DirichletParams((data.draw(floats), data.draw(floats)))
        prior = DirichletParams((data.draw(st.floats(0.2, 3.0)), data.draw(st.floats(0.2, 3.0))))
        spec = data.draw(st.sampled_from((Mixture(prior), AlphaNML(2.5, prior), NML(), _kt_without_class_2_3)))
        alpha = data.draw(st.sampled_from((1.5, 2.0, 3.7, 12.0)))
        b = DirichletParams((data.draw(st.floats(0.95, 3.0)), data.draw(st.floats(0.95, 3.0))))
        for call in (
            lambda: average_luckiness_regret(spec, params, n),
            lambda: sibson_mi_alpha(n, 2, 1.0, params),
            lambda: luckiness_alpha_regret(spec, b, n, alpha),
        ):
            assert _warnings(call) == []


class TestObjectiveGoldens:
    """Exact float64 results of the simplex maximizations and the Dirichlet averages.

    Pinned with ==, so any change to the order of the floating-point
    operations of the objectives, the densities or the integrands shows.
    """

    def test_alpha_regret_two_symbols(self):
        rep = alpha_regret(AlphaNML(2.5, DirichletParams((0.2, 0.3))), 200, 2, 1.8)
        assert (rep.value_nats, rep.maximizer.theta) == (2.732737755915937, (0.5988971889123653, 0.4011028110876347))

    def test_alpha_regret_three_symbols(self):
        rep = alpha_regret(AlphaNML(2.0, DirichletParams((0.1, 0.15, 0.2))), 12, 3, 2.7)
        assert (rep.value_nats, rep.maximizer.theta) == (
            3.0562954536685014,
            (0.3756102389672636, 0.33317256352963126, 0.2912171975031052),
        )

    def test_average_regret_two_symbols(self):
        rep = average_regret(AlphaNML(1.6, DirichletParams((0.2, 0.3))), 200, 2)
        assert (rep.value_nats, rep.maximizer.theta) == (2.7169960376062896, (0.598596268297088, 0.401403731702912))

    def test_luckiness_supform_three_symbols(self):
        predictor = AlphaNML(2.2, DirichletParams((0.8, 1.5, 0.5)))
        rep = luckiness_alpha_regret_supform(predictor, DirichletParams((1.5, 2.0, 1.2)), 12, 3, 1.9)
        assert (rep.value_nats, rep.maximizer.theta) == (
            2.832411363645754,
            (0.3233355226974124, 0.4769712187459425, 0.1996932585566451),
        )

    def test_tilted_alpha_regret_prior_below_one(self):
        """b = (0.8, 0.9) at alpha = 1.5 tilts the prior to (0.7, 0.85)."""
        b = DirichletParams((0.8, 0.9))
        assert luckiness_alpha_regret(LuckinessAlphaNML(1.5, b), b, 60, 1.5) == 1.8505191550897067

    def test_average_luckiness_regret_prior_below_one(self):
        predictor = AlphaNML(2.0, DirichletParams((0.5, 0.5)))
        assert average_luckiness_regret(predictor, DirichletParams((0.6, 0.9)), 60) == 1.819933831839675

    def test_order_one_radius_prior_below_one(self):
        assert sibson_mi_alpha(60, 2, 1.0, DirichletParams((0.4, 0.7))) == 1.7741446963040346


class TestSupremumAttainedAtMaximizer:
    """Each reported supremum is the objective at its reported maximizer, bit for bit."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("alpha", [1.0, 1.8, 6.0])
    @pytest.mark.parametrize("predictor", ["kt", "anml", "nml"])
    def test_alpha_and_average_regret(self, m, alpha, predictor):
        spec = {"kt": kt(m), "anml": AlphaNML(2.2, DirichletParams((0.4, 1.3, 0.8)[:m])), "nml": NML()}[predictor]
        n = 9 if m == 3 else 40
        rep = average_regret(spec, n, m) if alpha == 1.0 else alpha_regret(spec, n, m, alpha)
        assert rep.value_nats.hex() == renyi_divergence_vs_predictor(rep.maximizer, spec, n, alpha).hex()

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("alpha", [1.0, 1.9, 6.0])
    def test_luckiness_supform(self, m, alpha):
        spec = AlphaNML(2.2, DirichletParams((0.8, 1.5, 0.5)[:m]))
        b = DirichletParams((1.5, 2.0, 1.2)[:m])
        n = 9 if m == 3 else 40
        rep = luckiness_alpha_regret_supform(spec, b, n, m, alpha)
        divergence = renyi_divergence_vs_predictor(rep.maximizer, spec, n, alpha)
        expected = float(b.log_pdf([rep.maximizer.theta])[0]) + divergence
        assert rep.value_nats.hex() == expected.hex()


class TestRenyiDivergenceGoldens:
    """``renyi_divergence_vs_predictor`` pinned by ``float.hex``, zero coordinates and m = 4 included."""

    @pytest.mark.parametrize(
        "theta, predictor, n, alpha, expected",
        [
            ((0.3, 0.7), kt(2), 5, 1.0, "0x1.16843309dcccfp-1"),
            ((0.3, 0.7), kt(2), 5, 2.0, "0x1.6b02195ca1cd3p-1"),
            ((0.0, 1.0), AlphaNML(2.5, DirichletParams((0.5, 0.5))), 8, 1.5, "0x1.84dd9fecfc2a2p+0"),
            ((0.2, 0.5, 0.3), NML(), 6, 3.7, "0x1.c1bbbd6e27d68p+0"),
            ((0.5, 0.0, 0.5), Mixture(DirichletParams((0.7, 1.2, 0.9))), 7, 1.0, "0x1.3a8b77f9ae8a8p+1"),
            ((0.1, 0.2, 0.3, 0.4), kt(4), 6, 2.0, "0x1.6c8e89df07430p+0"),
            ((0.25, 0.0, 0.5, 0.25), LuckinessNML(DirichletParams((1.2, 1.5, 2.0, 1.1))), 5, 12.0, "0x1.12fb423de4dd3p+1"),
            ((0.0, 0.0, 1.0, 0.0), AlphaNML(3.0, DirichletParams((0.6, 0.8, 1.0, 1.4))), 4, 1.0, "0x1.7c88941d4afbfp+1"),
            ((0.6, 0.4), LuckinessAlphaNML(1.7, DirichletParams((1.3, 1.6))), 10, 1e6, "0x1.fd06acc019fe4p-1"),
            (SimplexPoint((0.5, 0.5)), laplace(2), 0, 2.0, "0x0.0p+0"),
            ((0.3, 0.3, 0.4), lambda cv: log_joint(kt(3), cv), 4, 1.5, "0x1.5d561bf95087cp-1"),
        ],
    )
    def test_golden(self, theta, predictor, n, alpha, expected):
        assert renyi_divergence_vs_predictor(theta, predictor, n, alpha).hex() == expected


class TestThetaBudget:
    """A theta route over more than ``_MAX_THETA_CELLS`` points x classes fails fast, from the estimate."""

    @pytest.mark.parametrize(
        ("n", "m", "estimate"),
        [(1_000_000, 2, "a theta route of 4096 points at (n, m) = (1000000, 2) has 4096004096 cells"),
         (2000, 3, "a theta route of 33153 points at (n, m) = (2000, 3) has 66405492153 cells")],
    )
    def test_over_budget_supremum_raises_without_allocating(self, n, m, estimate):
        predictor = kt(m)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedError, match=rf"^{re.escape(estimate)}, above"):
                alpha_regret(predictor, n, m, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize(
        "call",
        [lambda: sibson_mi_alpha(5000, 3, 1.0, J3), lambda: average_luckiness_regret(kt(3), J3, 5000, 3),
         lambda: luckiness_alpha_regret(kt(3), DirichletParams((2.0, 2.0, 2.0)), 5000, 2.0, 3)],
        ids=["I_1", "average-luckiness", "tilted"],
    )
    def test_over_budget_dirichlet_average_raises_without_allocating(self, call):
        """A Dirichlet average is a class sum: the class budget refuses it, and the theta budget does not count it."""
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedError, match=r"^\(n, m\) = \(5000, 3\) has 12507501 type classes, above"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_the_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(regret, "_MAX_THETA_CELLS", regret.GRID_POINTS * 31)
        assert alpha_regret(kt(2), 30, 2, 2.0).value_nats > 0.0
        with pytest.raises(UnsupportedError, match=r"\(31, 2\) has 131072 cells"):
            alpha_regret(kt(2), 31, 2, 2.0)

    @pytest.mark.parametrize("size", [["--n", "1000000", "--m", "2"], ["--n", "2000", "--m", "3"]])
    def test_cli_exits_4_with_one_error_line(self, capsys, size):
        assert cli.main(["regret", "--kind", "alpha", "--alpha", "2", *size, "--predictor", "kt"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: a theta route of ")
