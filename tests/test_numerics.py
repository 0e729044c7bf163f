"""Log-domain special functions and stable reductions."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanml import numerics
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
    """ln Gamma of one float: the C library lgamma."""

    @given(st.floats(min_value=0.5, max_value=1e4))
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, x):
        """ln Gamma(x + 1) = ln Gamma(x) + ln x to relative 1e-12."""
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + math.log(x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 100, 1000, 50_000])
    def test_integer_agrees_with_lgamma(self, k):
        """Values match math.lgamma to relative 1e-13 at integers."""
        assert abs(log_gamma(float(k)) - math.lgamma(k)) <= 1e-13 * max(1.0, math.lgamma(k))

    @pytest.mark.parametrize("k", [0, 1, 2, 10, 999, 50_000])
    def test_half_integer_agrees_with_lgamma(self, k):
        """Values match math.lgamma to relative 1e-13 at half-integers."""
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
        """At large arguments the C library lgamma matches scipy's gammaln to relative 1e-13."""
        ref = float(scipy.special.gammaln(x))
        assert abs(log_gamma(x) - ref) <= 1e-13 * abs(ref)


class TestXlogy:
    """The single handler for 0 * ln 0 in likelihood sums."""

    def test_zero_times_log_zero(self):
        assert xlogy(0.0, 0.0) == 0.0

    def test_matches_direct_product(self):
        np.testing.assert_allclose(xlogy(3.0, 0.25), 3.0 * math.log(0.25), rtol=1e-15)


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


BRANCH_EDGES = [2.0, 3.0, 13.0, 1000.0, 1e8]  # where Cephes lgam changes formula
XLOGY_EDGES = [
    (0.0, 0.0), (0.0, math.nan), (0.0, -1.0), (0.0, math.inf), (-0.0, 3.0),  # 0 * ln y is 0 unless y is nan
    (2.5, 0.0), (-2.5, 0.0), (2.5, -1.0), (2.5, math.inf), (-2.5, math.inf),  # x * ln 0, ln of a negative, ln inf
    (math.nan, 0.0), (math.inf, 1.0), (1.0, 5e-324),
]


class TestPortsMatchScipy:
    """The plain-Python ports give the bits of scipy.special, compared by float.hex.

    Under pytest scipy is loaded, so ``gammaln`` and ``xlogy`` route to it;
    these tests call the ports themselves. A scipy release that changes
    either function fails here, instead of making the two routes disagree.
    """

    @given(st.floats(min_value=0.0, max_value=1e300, exclude_min=True))
    @settings(max_examples=1000, deadline=None)
    def test_lgam_over_the_positive_floats(self, x):
        assert numerics._lgam(x).hex() == float(scipy.special.gammaln(x)).hex()

    def test_lgam_on_half_integers_and_integers(self):
        """k + 1/2 and k + 1 for k <= 1e5: the cells of every mixture and Jeffreys scan."""
        grid = np.concatenate([np.arange(100_001) + 0.5, np.arange(100_001) + 1.0])
        assert _hexes([numerics._lgam(x) for x in grid.tolist()]) == _hexes(scipy.special.gammaln(grid))

    @pytest.mark.parametrize("edge", BRANCH_EDGES)
    def test_lgam_at_branch_edges(self, edge):
        xs = [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        assert _hexes([numerics._lgam(x) for x in xs]) == _hexes(scipy.special.gammaln(xs))

    def test_lgam_off_the_positive_axis(self):
        """Poles, negative arguments (below -34 the port hands over to scipy), inf and nan."""
        xs = [0.0, -0.0, -1.0, -7.0, -0.5, -2.75, -33.9, -34.5, -1e3 - 0.25, 5e-324, math.inf, -math.inf, math.nan]
        assert _hexes([numerics._lgam(x) for x in xs]) == _hexes(scipy.special.gammaln(xs))

    def test_xlogy_edge_cases(self):
        x, y = map(list, zip(*XLOGY_EDGES))
        assert _hexes(list(map(numerics._xlogy, x, y))) == _hexes(scipy.special.xlogy(x, y))

    @given(st.floats(-1e6, 1e6), st.floats(0.0, 1e300))
    @settings(max_examples=300, deadline=None)
    def test_xlogy_over_floats(self, x, y):
        assert numerics._xlogy(x, y).hex() == float(scipy.special.xlogy(x, y)).hex()


class TestRoutes:
    """The ports answer until scipy.special is loaded or their cell budget is spent; then scipy does, for good."""

    @pytest.fixture
    def unswitched(self, monkeypatch):
        """A process that has not switched and has not loaded scipy.special; all is restored afterwards."""
        monkeypatch.setattr(numerics, "_special", None)
        monkeypatch.setattr(numerics, "_port_cells", 0)
        monkeypatch.delitem(sys.modules, "scipy.special")
        return monkeypatch

    @pytest.mark.parametrize(
        "shapes", [((), ()), ((3, 1), (4,)), ((), (5,)), ((2, 3), ()), ((0, 2), (2,))], ids=str
    )
    def test_the_ports_broadcast_as_the_ufuncs_do(self, unswitched, rng, shapes):
        x = rng.uniform(-2.0, 2.0, shapes[0])
        y = rng.choice(np.array([0.0, 0.25, 3.0, -1.0, math.inf, math.nan]), shapes[1])
        for got, ref in [
            (numerics.xlogy(x, y), scipy.special.xlogy(x, y)),
            (numerics.gammaln(y), scipy.special.gammaln(y)),
        ]:
            assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
            assert _hexes(got) == _hexes(ref)
        assert numerics._special is None
        assert numerics._port_cells == np.broadcast(x, y).size + y.size

    @pytest.mark.parametrize(
        "args",
        [
            (np.array([0, 1, 3]),),
            (np.array([0, 1, 3], dtype=np.uint32),),
            (np.array([0, 1, 3], dtype=np.int32),),
            (3,),
            (2.5,),
            (np.array([1.0, 2.5], dtype=np.float32), np.array([0.5, 3.0])),
            (np.array([0, 1, 3], dtype=np.int16), np.array([0, 1, 3])),
            (2, np.array([0.5, 3.0])),
        ],
        ids=str,
    )
    def test_arguments_of_the_float64_loop_reach_the_ports(self, unswitched, args):
        """An argument set reaches the ports when float32 cannot hold it all; scipy computes it in float64 too."""
        cells = np.broadcast(*args).size
        got, ref = numerics.xlogy(args[0], args[-1]), scipy.special.xlogy(args[0], args[-1])
        assert got.dtype == ref.dtype == np.float64 and _hexes(got) == _hexes(ref)
        got, ref = numerics.gammaln(args[-1]), scipy.special.gammaln(args[-1])
        assert got.dtype == ref.dtype == np.float64 and _hexes(got) == _hexes(ref)
        assert (numerics._special, numerics._port_cells) == (None, cells + np.size(args[-1]))

    @pytest.mark.parametrize(
        "value",
        [
            np.float32(0.75),
            np.array([0.5, 2.0], dtype=np.float16),
            np.array([0, 1, 3], dtype=np.int16),
            np.array([0, 1, 3], dtype=np.uint8),
            np.array([True, False]),
            0.5 + 0.25j,
        ],
        ids=repr,
    )
    def test_other_types_go_to_scipy(self, unswitched, value):
        """A set float32 holds may take scipy's float32 loop, whatever it takes today; complex takes the complex loop."""
        for got, ref in [
            (numerics.xlogy(value, value), scipy.special.xlogy(value, value)),
            (numerics.xlogy(2, value), scipy.special.xlogy(2, value)),
        ]:
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert (numerics._special, numerics._port_cells) == (scipy.special, 0)

    def test_a_python_float_gives_a_numpy_float(self, unswitched):
        assert type(numerics.gammaln(2.5)) is np.float64
        assert type(numerics.xlogy(2, 0.5)) is np.float64
        assert numerics._special is None

    def test_loaded_scipy_takes_over_at_the_first_call(self, monkeypatch):
        monkeypatch.setattr(numerics, "_special", None)
        monkeypatch.setattr(numerics, "_port_cells", 0)
        assert numerics.gammaln(np.array([0.5, 1.5])).tolist() == scipy.special.gammaln([0.5, 1.5]).tolist()
        assert numerics._special is scipy.special
        assert numerics._port_cells == 0

    def test_a_call_past_the_budget_switches_for_good(self, unswitched):
        unswitched.setattr(numerics, "_PORT_CELLS", 10)
        cells = np.arange(6) + 0.5
        numerics.gammaln(cells)
        numerics.xlogy(cells[:4], 2.0)
        assert (numerics._special, numerics._port_cells) == (None, 10)  # the budget is inclusive
        assert _hexes(numerics.gammaln([0.5, 30.25])) == _hexes(scipy.special.gammaln([0.5, 30.25]))
        assert (numerics._special, numerics._port_cells) == (scipy.special, 10)
        numerics.xlogy(0.0, 1.0)
        assert (numerics._special, numerics._port_cells) == (scipy.special, 10)


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
