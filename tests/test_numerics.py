"""Log-domain special functions and stable reductions."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanml import NML, AlphaNML, DirichletParams, LuckinessNML, kt, log_normalizer, numerics, predictors
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

    @given(
        st.integers(257, 20_000),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 30.0, 700.0]),
        st.sampled_from([0.0, 0.01, 0.5]),
        st.sampled_from([list, np.array]),
    )
    @settings(max_examples=60, deadline=None)
    def test_long_reductions_equal_fsum_over_the_array(self, size, seed, spread, neg_inf, container):
        """From 257 to 20,000 terms, -inf included, on both sides of the extraction threshold: fsum's bits."""
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, spread, size)
        values[rng.random(size) < neg_inf] = -math.inf
        hi = float(values.max())
        expected = -math.inf if hi == -math.inf else hi + math.log(math.fsum(np.exp(values - hi)))
        assert log_sum_exp(container(values.tolist())).hex() == expected.hex()

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


class _CountingMath:
    """numerics' ``math``, with fsum counting its whole-array sums: memoryviews, where the bracket sums lists."""

    def __init__(self):
        self.whole_arrays = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, terms):
        self.whole_arrays += isinstance(terms, memoryview)
        return math.fsum(terms)


def _exact_sum_counting(x: np.ndarray) -> tuple[float, int]:
    """``_exact_sum(x)`` and how many times it summed the whole array with fsum: below the threshold or as fallback."""
    counting = _CountingMath()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "math", counting)
        return numerics._exact_sum(x), counting.whole_arrays


def _unit_pieces(count: int) -> np.ndarray:
    """``count`` dyadic fractions that add up to exactly 1."""
    whole = 1 << (count.bit_length() - 1)
    split = count - whole  # that many of ``whole`` equal pieces are halved
    return np.concatenate((np.full(whole - split, 1.0 / whole), np.full(2 * split, 0.5 / whole)))


def _fsum_log_sum_exp(terms) -> float:
    """log_sum_exp's reduction with fsum over every shifted exponential, whatever their number."""
    values = np.asarray(terms, dtype=np.float64).ravel()
    hi = float(values.max())
    return hi + math.log(math.fsum(np.exp(values - hi).tolist()))


def _perfbench_draws(seed: int) -> list:
    """Specs drawn as perfbench's scan ops draw them, at their sizes, with the class count each reduces."""
    rng = np.random.default_rng(seed)

    def anml(m):
        return AlphaNML(float(rng.uniform(1.5, 4.0)), DirichletParams(tuple(rng.uniform(0.3, 2.0, m))))

    return [
        (anml(3), 100, 3, 5151),  # normalizer_m3
        (anml(2), 1500, 2, 1501),  # worst_case_m2
        (LuckinessNML(DirichletParams(tuple(rng.uniform(1.0, 3.0, 3)))), 60, 3, 1891),  # luckiness_worst_case_m3
        (anml(5), 16, 5, 4845),  # normalizer_m5
        (NML(), 40, 4, 12341),  # sibson_infinity_m4
    ]


class TestExactSum:
    """The reduce layer's sum: ``math.fsum``'s bits, by fsum or by an extraction bracket with fsum as fallback."""

    @staticmethod
    def _draw(seed: int, size: int, kind: str) -> np.ndarray:
        rng = np.random.default_rng(seed)
        if kind == "exp":  # exp(-800) is 0 and exp below -708 subnormal
            return np.exp(rng.uniform(-800.0, 0.0, size))
        k = int(rng.integers(1, 53))  # a grid of step 2^-k on [0, 1], whose sums can land on halfway points
        return rng.integers(0, 2**k + 1, size) * 2.0**-k

    @given(
        st.one_of(
            st.integers(1, 1 << 16),
            st.integers(numerics._EXACT_SUM_FROM - 64, numerics._EXACT_SUM_FROM + 64),
        ),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["exp", "dyadic"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_fsum(self, size, seed, kind):
        x = self._draw(seed, size, kind)
        assert numerics._exact_sum(x).hex() == math.fsum(x.tolist()).hex()

    @pytest.mark.parametrize("size", [numerics._EXACT_SUM_FROM, 5151, 70_001])
    @pytest.mark.parametrize("nudge", [0.0, 5e-324])
    def test_a_sum_on_a_halfway_point_falls_back_to_fsum(self, rng, size, nudge):
        """1 + 2^-53 ties to even, down to 1; a 5e-324 nudge rounds it up. No bracket can close on either."""
        x = np.concatenate(([1.0, nudge], _unit_pieces(size - 2) * 2.0**-53))
        rng.shuffle(x)
        got, fallbacks = _exact_sum_counting(x)
        expected = math.nextafter(1.0, 2.0) if nudge else 1.0
        assert got.hex() == math.fsum(x.tolist()).hex() == expected.hex()
        assert fallbacks == 1

    @pytest.mark.parametrize("size", [numerics._EXACT_SUM_FROM, 5151, 70_001])
    def test_parts_above_a_halfway_point_with_the_terms_below_it(self, rng, size):
        """Eight terms just over half a step of the second level's grid round up a whole step there, so the
        first two parts sum 2 steps above 1 + 2^-53 while the terms sum 2 steps below it. A bracket as wide
        as the remainders stays open, and the third level closes it at 1 without the fallback."""
        t = (size + 1).bit_length()
        step = 2.0 ** (2 * t - 105)
        x = np.concatenate(([1.0, 2.0**-53 - 6 * step], np.full(8, step / 2 * (1 + 2.0**-24)), np.zeros(size - 10)))
        rng.shuffle(x)
        got, fallbacks = _exact_sum_counting(x)
        assert got.hex() == math.fsum(x.tolist()).hex() == (1.0).hex()
        assert fallbacks == 0

    @pytest.mark.parametrize(
        ("spec", "n", "m", "classes"),
        [*_perfbench_draws(2301), *_perfbench_draws(2302), (kt(3), 1000, 3, 501_501)],
        ids=lambda v: f"{v}" if isinstance(v, int) else type(v).__name__,
    )
    def test_scan_terms_close_the_bracket(self, monkeypatch, spec, n, m, classes):
        """The terms real scans reduce resolve without the fallback, so a silent slide back to fsum shows."""
        handed = []
        exact_sum = numerics._exact_sum
        monkeypatch.setattr(numerics, "_exact_sum", lambda x: handed.append(x.copy()) or exact_sum(x))
        log_normalizer(spec, n, m, cache=None)
        (x,) = handed
        got, fallbacks = _exact_sum_counting(x)
        assert (x.size, fallbacks) == (classes, 0)
        assert got.hex() == math.fsum(x.tolist()).hex()

    @pytest.mark.parametrize(("n", "m"), [(100, 3), (16, 5), (1500, 2)])
    @pytest.mark.parametrize("kind", ["alpha", "nml"])
    def test_log_normalizer_keeps_the_fsum_bits(self, monkeypatch, n, m, kind):
        spec = NML() if kind == "nml" else AlphaNML(2.7, DirichletParams(tuple(np.linspace(0.4, 1.9, m))))
        got = log_normalizer(spec, n, m, cache=None)
        monkeypatch.setattr(predictors, "log_sum_exp", _fsum_log_sum_exp)
        assert got.hex() == log_normalizer(spec, n, m, cache=None).hex()


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

    @pytest.mark.parametrize(
        ("n", "counts"), [(2, (1.5, 1.5)), (2.5, (1, 1)), (math.nan, (1, 1)), (2, (math.inf, 1)), (1, (math.nan, 1))]
    )
    def test_log_multinomial_rejects_what_is_not_whole(self, n, counts):
        """n and the counts are checked as given, not truncated: 2.5 is not 2, and 1.5 + 1.5 is not 1 + 1."""
        with pytest.raises(ValueError, match=r"^n and the counts must be whole numbers, got "):
            log_multinomial(n, counts)

    def test_log_multinomial_takes_whole_floats(self):
        assert log_multinomial(4.0, (1.0, np.int64(3))) == log_multinomial(4, (1, 3))

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
