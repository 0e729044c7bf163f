"""The row kernel of the simplex objectives against the batch route it bypasses.

One theta with finite coordinates >= 0 (a golden-section or Nelder-Mead
probe) is evaluated by ``TypeClassTable._point`` on (K,) rows with one
``math.log`` per coordinate; a batch, a quadrature panel's 21 nodes among
them, takes the batch route, which skips its finiteness mask when no theta
has a zero coordinate. A worst-case scan whose predictor is its own
benchmark evaluates the numerators once. The references here and in
``theta_reference`` are the routes these replaced (the quadratures on
scipy's ``quad``, one node at a time), and every value must equal theirs bit
for bit (signs of zero included).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphanml import (
    AlphaNML,
    DirichletParams,
    LuckinessNML,
    Mixture,
    NML,
    NumericError,
    TypeClassTable,
    alpha_regret,
    average_luckiness_regret,
    log_joint,
    log_joints,
    log_numerators,
    luckiness_alpha_regret,
    luckiness_alpha_regret_supform,
    sibson_mi_alpha,
    tilted_params,
    worst_case_luckiness_regret,
    worst_case_regret,
)
from alphanml import predictors, regret
from alphanml.numerics import accept_quadrature
from alphanml.predictors import DEFAULT_CACHE
from alphanml.regret import DirichletDensity, dirichlet_quadrature
from theta_reference import batch_route, maximize_on_simplex, reference_kl_values, reference_log_ptheta, reference_renyi_values
from theta_reference import scipy_dirichlet_quadrature


def reference_luckiness_alpha_regret(predictor, b, n, alpha, tol=1e-7):
    """``luckiness_alpha_regret`` with the tilted integrand on the batch route."""
    tilt = tilted_params(alpha, b)
    table = TypeClassTable(n, 2, predictor)

    def weighted(pdf: float, theta: np.ndarray) -> float:
        lp = reference_log_ptheta(table, theta)[0]
        inner = table.log_mult + alpha * lp + (1.0 - alpha) * table.log_joint
        hi = np.max(inner)
        return pdf * math.exp(hi) * float(np.sum(np.exp(inner - hi)))

    with np.errstate(invalid="ignore"):  # inf - inf on a zero-probability class
        value, err = scipy_dirichlet_quadrature(tilt, weighted)
    bound = tol * max(value, 1e-300) if value > 0.0 else math.nan
    return math.log(accept_quadrature(value, err, bound, "the tilted alpha-regret")) / (alpha - 1.0)


def reference_kl_quadrature(predictor, params, n, tol):
    """``average_luckiness_regret`` and the order-one radius with the batch-route KL integrand."""
    table = TypeClassTable(n, 2, predictor)
    value, err = scipy_dirichlet_quadrature(params, lambda pdf, theta: pdf * float(reference_kl_values(table, theta)[0]))
    return accept_quadrature(value, err, tol, "the average luckiness regret")


def _same(a, b) -> bool:
    """Equal shape and bytes: the same floats, signs of zero and nan bits included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _point_values(table, theta, alpha):
    """The row route at the one row of a (1, m) theta, as a (1,) array."""
    return np.array([table._point(theta[0].tolist(), alpha)])


def _outcome(call):
    """A call's value, or the repr of the partial value of the NumericError it raised."""
    try:
        return call()
    except NumericError as exc:
        return ("NumericError", repr(exc.partial))


# uniform draws whose numpy log differs from the C library's in the last bit
_DRAWS = np.random.default_rng(20261018).random(100_000)
_LOG_SPLITS = _DRAWS[np.log(_DRAWS) != np.array([math.log(x) for x in _DRAWS.tolist()])].tolist() or _DRAWS[:64].tolist()

_interior = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
_coordinate = st.one_of(
    st.sampled_from(_LOG_SPLITS), _interior, st.just(0.0), st.just(1.0), st.just(5e-324), st.just(1.0 - 2**-53)
)


@st.composite
def _rows(draw, m: int):
    """One theta: split coordinates, interior points, vertices, faces and subnormals."""
    kind = draw(st.sampled_from(("split", "free", "vertex")))
    if kind == "vertex":
        return np.eye(m)[draw(st.integers(0, m - 1))]
    if kind == "split":
        x = draw(st.sampled_from(_LOG_SPLITS))
        u = draw(st.sampled_from(_LOG_SPLITS))
        return np.array([x, 1.0 - x]) if m == 2 else np.array([x, (1.0 - x) * u, (1.0 - x) * (1.0 - u)])
    row = np.array([draw(_coordinate) for _ in range(m)])
    total = row.sum()
    return row / total if draw(st.booleans()) and total > 0.0 else row


def _predictor(draw, m: int):
    prior = DirichletParams(tuple(draw(st.floats(min_value=0.2, max_value=3.0)) for _ in range(m)))
    spec = draw(st.sampled_from((Mixture(prior), AlphaNML(2.5, prior), NML())))
    if not draw(st.booleans()):
        return spec
    ruled_out = draw(st.one_of(st.none(), st.integers(0, 3)))

    def joint(cv):
        """A CountVector callable; optionally zero probability on the class with c_0 = ruled_out."""
        if cv.counts[0] == ruled_out:
            return -math.inf
        return log_joint(spec, cv)

    return joint


@st.composite
def _tables(draw):
    m = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(min_value=0, max_value=14))
    return m, TypeClassTable(n, m, _predictor(draw, m))


_ALPHAS = st.sampled_from((1.0, 1.5, 2.0, 3.7, 12.0))


class TestRowKernel:
    """One theta takes the row kernel; its values equal the batch route's bit for bit."""

    @given(_tables(), st.data(), _ALPHAS)
    @settings(max_examples=150, deadline=None)
    def test_single_rows_equal_the_batch_route(self, case, data, alpha):
        m, table = case
        for _ in range(4):
            theta = data.draw(_rows(m))[None, :]
            with np.errstate(all="ignore"):
                assert _same(table._row(theta[0].tolist())[0][None, :], reference_log_ptheta(table, theta))
                assert _same(_point_values(table, theta, 1.0), reference_kl_values(table, theta))
                assert _same(
                    _outcome(lambda: _point_values(table, theta, alpha)),
                    _outcome(lambda: reference_renyi_values(table, theta, alpha)),
                )

    @given(_tables(), st.data(), _ALPHAS)
    @settings(max_examples=80, deadline=None)
    def test_batches_equal_the_batch_route(self, case, data, alpha):
        """Batches with and without zero coordinates: the mask is skipped only where it is the identity."""
        m, table = case
        thetas = np.array([data.draw(_rows(m)) for _ in range(data.draw(st.integers(2, 6)))])
        with np.errstate(all="ignore"):
            assert _same(batch_route(table, thetas), reference_log_ptheta(table, thetas))
            assert _same(batch_route(table, thetas, 1.0), reference_kl_values(table, thetas))
            assert _same(
                _outcome(lambda: batch_route(table, thetas, alpha)),
                _outcome(lambda: reference_renyi_values(table, thetas, alpha)),
            )

    def test_split_pool_holds_inputs_where_numpy_log_differs(self):
        """The strategy above must draw where np.log and math.log disagree, when this platform has such points."""
        differs = np.log(np.array(_LOG_SPLITS)) != np.array([math.log(x) for x in _LOG_SPLITS])
        if not differs.any():
            pytest.skip("numpy's log equals the C library's on this platform")
        assert differs.all()

    def test_empty_horizon_keeps_the_sign_of_zero(self):
        table = TypeClassTable(0, 3, NML())
        theta = np.array([[0.25, 0.25, 0.5]])
        lp = table._row(theta[0].tolist())[0][None, :]
        assert lp.tolist() == [[0.0]] and not np.signbit(lp).any()
        assert _same(_point_values(table, theta, 2.0), reference_renyi_values(table, theta, 2.0))

    def test_tilt_follows_the_order(self):
        """(1 - alpha) ln q is computed once per order and replaced when the order changes."""
        table = TypeClassTable(9, 2, AlphaNML(2.0, DirichletParams((0.3, 0.8))))
        theta = np.array([[0.3, 0.7]])
        for alpha in (2.0, 3.7, 2.0, 1.5, 1.5):
            assert _same(_point_values(table, theta, alpha), reference_renyi_values(table, theta, alpha))


class TestProbes:
    """Golden-section and Nelder-Mead probes through the row kernel find the batch route's maximum."""

    @given(st.sampled_from((2, 3)), st.integers(1, 12), _ALPHAS, st.floats(0.2, 3.0), st.floats(0.2, 3.0))
    @settings(max_examples=10, deadline=None)
    def test_alpha_regret_equals_maximizing_the_reference_objective(self, m, n, alpha, a0, a1):
        prior = DirichletParams((a0, a1) if m == 2 else (a0, a1, 0.5))
        predictor = AlphaNML(1.8, prior)
        rep = alpha_regret(predictor, n, m, alpha)
        table = TypeClassTable(n, m, predictor)
        point, value = maximize_on_simplex(m, lambda thetas: reference_renyi_values(table, thetas, alpha))
        assert (rep.value_nats, rep.maximizer) == (value, point)

    def test_supform_equals_maximizing_the_reference_objective(self):
        predictor = AlphaNML(2.2, DirichletParams((0.8, 1.5, 0.5)))
        b = DirichletParams((1.5, 2.0, 1.2))
        rep = luckiness_alpha_regret_supform(predictor, b, 12, 3, 1.9)
        table = TypeClassTable(12, 3, predictor)
        density = DirichletDensity(b)
        point, value = maximize_on_simplex(
            3, lambda thetas: density.log_pdf(thetas) + reference_renyi_values(table, thetas, 1.9)
        )
        assert (rep.value_nats, rep.maximizer) == (value, point)


_PARAMS = st.tuples(
    st.one_of(st.just(1.0), st.floats(0.2, 3.0)), st.one_of(st.just(1.0), st.floats(0.2, 3.0))
).map(DirichletParams)


def _density_point(m: int):
    """Dirichlet parameters over m symbols with exponents of either sign, and a theta with zero coordinates."""
    param = st.one_of(st.floats(0.2, 0.95), st.just(1.0), st.floats(1.05, 3.0))
    coordinate = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    return st.tuples(st.tuples(*[param] * m), st.tuples(*[coordinate] * m))


class TestLogPoint:
    """``DirichletDensity.log_point`` is ``log_pdf`` at one theta, bit for bit."""

    @given(st.sampled_from([2, 3]).flatmap(_density_point))
    @example(((0.8, 1.2), (0.0, 0.0)))  # +inf under one zero, -inf under the other: log_pdf gives +inf
    @example(((0.8, 1.2, 1.0), (0.0, 0.0, 1.0)))
    @example(((1.5, 2.0, 0.5), (0.0, 0.3, 0.7)))
    @settings(max_examples=200, deadline=None)
    def test_equals_log_pdf(self, case):
        params, coordinates = case
        density = DirichletDensity(DirichletParams(params))
        expected = float(density.log_pdf(np.array([coordinates]))[0])
        assert density.log_point(coordinates).hex() == expected.hex()


class TestQuadratureNodes:
    """Scalar densities and row-kernel integrands give the old quadratures bit for bit."""

    @given(_PARAMS)
    @settings(max_examples=40, deadline=None)
    def test_every_node_gets_the_log_pdf_density(self, params):
        nodes, reference_nodes = [], []

        def weighted(pdfs, thetas):
            assert thetas.shape == (21, 2) and len(pdfs) == 21 and all(type(pdf) is float for pdf in pdfs)
            nodes.extend((pdf.hex(), tuple(x.hex() for x in theta)) for pdf, theta in zip(pdfs, thetas.tolist()))
            return [pdf * theta[0] for pdf, theta in zip(pdfs, thetas.tolist())]

        def reference_weighted(pdf, theta):
            assert theta.shape == (1, 2)
            reference_nodes.append((pdf.hex(), tuple(x.hex() for x in theta[0].tolist())))
            return pdf * theta[0, 0]

        assert dirichlet_quadrature(params, weighted) == scipy_dirichlet_quadrature(params, reference_weighted)
        assert nodes == reference_nodes

    @given(st.integers(0, 14), _PARAMS, st.data())
    @settings(max_examples=15, deadline=None)
    def test_kl_quadratures(self, n, params, data):
        predictor = _predictor(data.draw, 2)
        assert _outcome(lambda: average_luckiness_regret(predictor, params, n)) == _outcome(
            lambda: reference_kl_quadrature(predictor, params, n, 1e-8)
        )
        assert _outcome(lambda: sibson_mi_alpha(n, 2, 1.0, params)) == _outcome(
            lambda: reference_kl_quadrature(Mixture(params), params, n, 1e-8)
        )

    @given(st.integers(0, 14), st.sampled_from((1.5, 2.0, 3.7, 12.0)), st.data())
    @settings(max_examples=15, deadline=None)
    def test_tilted_alpha_regret(self, n, alpha, data):
        b = DirichletParams((data.draw(st.floats(0.95, 3.0)), data.draw(st.floats(0.95, 3.0))))
        predictor = _predictor(data.draw, 2)
        assert _outcome(lambda: luckiness_alpha_regret(predictor, b, n, alpha)) == _outcome(
            lambda: reference_luckiness_alpha_regret(predictor, b, n, alpha)
        )


class TestWorstCaseNumerators:
    """A worst-case scan of the benchmark's own kind evaluates its numerators once."""

    @pytest.fixture
    def numerator_calls(self, monkeypatch):
        calls = []

        def counting(spec, counts):
            calls.append(spec)
            return log_numerators(spec, counts)

        monkeypatch.setattr(predictors, "log_numerators", counting)
        monkeypatch.setattr(regret, "log_numerators", counting)
        return calls

    @pytest.mark.parametrize("cache_state", ["cold", "warm"])
    def test_nml_scan(self, numerator_calls, cache_state):
        DEFAULT_CACHE.clear()
        if cache_state == "warm":
            worst_case_regret(NML(), 40, 3)
            numerator_calls.clear()
        rep = worst_case_regret(NML(), 40, 3)
        assert numerator_calls == [NML()]
        counts = predictors.count_vectors(40, 3)
        vals = log_numerators(NML(), counts) - log_joints(NML(), counts)
        assert rep.value_nats == float(vals.max())

    @pytest.mark.parametrize("cache_state", ["cold", "warm"])
    def test_luckiness_scan(self, numerator_calls, cache_state):
        b = DirichletParams((1.3, 1.7, 2.1))
        DEFAULT_CACHE.clear()
        if cache_state == "warm":
            worst_case_luckiness_regret(LuckinessNML(b), b, 30, 3)
            numerator_calls.clear()
        rep = worst_case_luckiness_regret(LuckinessNML(b), b, 30, 3)
        assert numerator_calls == [LuckinessNML(b)]
        counts = predictors.count_vectors(30, 3)
        vals = log_numerators(LuckinessNML(b), counts) - log_joints(LuckinessNML(b), counts)
        k = int(np.argmax(vals >= vals.max() - 1e-12 * max(1.0, abs(vals.max()))))
        assert (rep.value_nats, rep.maximizer.counts) == (float(vals[k]), tuple(counts[k].tolist()))

    def test_other_predictors_still_evaluate_their_own(self, numerator_calls):
        worst_case_regret(Mixture(DirichletParams.jeffreys(3)), 20, 3)
        assert numerator_calls == [NML(), Mixture(DirichletParams.jeffreys(3))]
