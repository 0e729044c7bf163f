"""The routes a supremum over theta takes, against the references they must match.

``_theta_sup`` evaluates its grid or lattice through ``TypeClassTable._grid_values`` (two scratch
arrays reused from chunk to chunk; at m = 3 the lattice rows are gathered from per-coordinate product
tables) and its refinement probes through the single-theta row.
The references are ``theta_reference``'s: ``maximize_on_simplex`` over ``reference_renyi_values``,
and the table's batch route on any rows. Every value must equal theirs bit for bit (``float.hex``).
The scratch arrays belong to one call, so threads may share a table and no result changes when a
later call runs.
"""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanml import (
    AlphaNML,
    DirichletParams,
    Mixture,
    NML,
    NumericError,
    TypeClassTable,
    log_joint,
)
from alphanml import regret
from alphanml.regret import GRID_CHUNK, GRID_POINTS, LATTICE_STEP, _class_table
from theta_reference import batch_route, chunked_values, maximize_on_simplex, reference_renyi_values


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def _outcome(call) -> list[str] | str:
    """The hex of a call's values, or "NumericError" if it raised one (a nan objective fails on every route).

    The message is not compared: the library names its Renyi route, the reference ``log_sum_exp_array``.
    """
    try:
        return _hex(call())
    except NumericError:
        return "NumericError"


def _grid(m: int) -> np.ndarray:
    """The rows ``regret._maximize`` evaluates before refining."""
    if m == 2:
        ts = np.linspace(0.0, 1.0, GRID_POINTS)
        return np.stack([ts, 1.0 - ts], axis=1)
    return _class_table(LATTICE_STEP, 3).counts / LATTICE_STEP


def _predictor(draw, m: int):
    prior = DirichletParams(tuple(draw(st.floats(min_value=0.2, max_value=3.0)) for _ in range(m)))
    spec = draw(st.sampled_from((Mixture(prior), AlphaNML(2.5, prior), NML())))
    if not draw(st.booleans()):
        return spec
    ruled_out = draw(st.integers(0, 3))

    def joint(cv):
        """A CountVector callable with zero probability on the classes with c_0 = ruled_out."""
        return -math.inf if cv.counts[0] == ruled_out else log_joint(spec, cv)

    return joint


_ALPHAS = st.sampled_from((1.0, 1.5, 3.7, 12.0))


class TestGridRoute:
    @given(st.integers(0, 14), _ALPHAS, st.data())
    @settings(max_examples=30, deadline=None)
    def test_lattice_equals_the_chunked_public_route(self, n, alpha, data):
        table = TypeClassTable(n, 3, _predictor(data.draw, 3))
        thetas = _grid(3)
        with np.errstate(all="ignore"):
            fast = _outcome(lambda: table._grid_values(thetas, alpha))
            generic = _outcome(lambda: chunked_values(lambda rows: reference_renyi_values(table, rows, alpha), thetas))
        assert fast == generic

    @given(st.integers(0, 40), _ALPHAS, st.data())
    @settings(max_examples=15, deadline=None)
    def test_grid_equals_the_chunked_public_route(self, n, alpha, data):
        table = TypeClassTable(n, 2, _predictor(data.draw, 2))
        thetas = _grid(2)
        with np.errstate(all="ignore"):
            fast = _outcome(lambda: table._grid_values(thetas, alpha))
            generic = _outcome(lambda: chunked_values(lambda rows: reference_renyi_values(table, rows, alpha), thetas))
        assert fast == generic

    def test_lattice_products_hold_the_zero_coordinate_rule(self):
        table = TypeClassTable(5, 3, NML())
        products = table._lattice_products()
        assert products.shape == (3, LATTICE_STEP + 1, table.log_mult.size)
        assert (np.isneginf(products[:, 0]) == table.positive.T).all()
        assert not (np.signbit(products[0]) & (products[0] == 0.0)).any()  # the sum's leading +0.0


class TestSupremumRoute:
    """``_theta_sup`` finds what ``maximize_on_simplex`` finds over the reference objective."""

    @given(st.sampled_from((2, 3)), st.integers(0, 14), _ALPHAS, st.booleans(), st.data())
    @settings(max_examples=12, deadline=None)
    def test_supremum_equals_maximizing_the_public_objective(self, m, n, alpha, weighted, data):
        predictor = _predictor(data.draw, m)
        b = DirichletParams(tuple(data.draw(st.floats(min_value=0.6, max_value=3.0)) for _ in range(m)))
        density = b if weighted else None
        fast, generic = self._outcomes(predictor, n, m, alpha, density)
        assert fast == generic

    @pytest.mark.parametrize("m", [2, 3])
    def test_weighted_supremum_equals_maximizing_the_public_objective(self, m):
        """The Dirichlet weight's refinement probes take ``log_pdf`` on one row; the reference objective on the grid."""
        predictor = AlphaNML(2.5, DirichletParams((0.7, 1.6, 0.9)[:m]))
        for b in ((1.5, 2.0, 1.25)[:m], (0.8, 1.2, 1.0)[:m]):  # the second is +inf at a vertex with theta_1 = 0
            fast, generic = self._outcomes(predictor, 9, m, 1.7, DirichletParams(b))
            assert fast == generic

    @staticmethod
    def _outcomes(predictor, n, m, alpha, density):
        """The (theta, value) hex of ``_theta_sup`` and of ``maximize_on_simplex`` over the reference objective."""
        table = TypeClassTable(n, m, predictor)

        def objective(thetas):
            values = reference_renyi_values(table, thetas, alpha)
            return values if density is None else density.log_pdf(thetas) + values

        with np.errstate(all="ignore"):
            outcomes = []
            for run in (lambda: regret._theta_sup("alpha", predictor, n, m, alpha, density),
                        lambda: maximize_on_simplex(m, objective)):
                try:
                    result = run()
                except NumericError:  # a nan objective fails on both routes
                    outcomes.append("NumericError")
                    continue
                point, value = (result.maximizer, result.value_nats) if hasattr(result, "maximizer") else result
                outcomes.append((_hex(point.theta), _hex([value])))
        return outcomes


class TestPointRoute:
    def test_the_log_of_the_summed_terms_is_numpy_log(self):
        """A row's Renyi value takes np.log of its sum, as the batch route does; math.log differs at some sums."""
        table = TypeClassTable(20, 2, AlphaNML(1.7, DirichletParams((0.6, 1.4))))
        for t in np.random.default_rng(11).random(100_000).tolist():
            terms = table._renyi_inner(table._row((t, 1.0 - t))[0], 2.5)
            hi = float(terms.max())
            total = float(np.add.reduce(np.exp(terms - hi)))
            if math.log(total) + hi != np.log(total) + hi:
                break
        else:
            pytest.skip("numpy's log equals the C library's at every sum drawn")
        theta = (t, 1.0 - t)
        assert table._point(theta, 2.5).hex() == float(batch_route(table, np.array([theta, theta]), 2.5)[0]).hex()


class TestScratchArrays:
    """The scratch arrays belong to one call: no shared state between threads, no aliasing of results."""

    @staticmethod
    def _work(table: TypeClassTable, alphas) -> list[list[str]]:
        rng = np.random.default_rng(7)
        batch = rng.dirichlet(np.ones(table.m), size=700)
        batch[3] = np.eye(table.m)[1]
        out = []
        for alpha in alphas:
            out.append(_hex(table._grid_values(_grid(table.m), alpha)))
            out.append(_hex(batch_route(table, batch, alpha)))
            out.append(_hex(batch_route(table, batch[:5])))
            out.append(_hex([table._point(tuple(batch[3].tolist()), alpha)]))
        return out

    @pytest.mark.parametrize("m", [2, 3])
    def test_threads_share_one_table(self, m):
        """More threads than cores, each with its own order of alphas, get the serial run's bits."""
        table = TypeClassTable(9 if m == 3 else 30, m, AlphaNML(2.2, DirichletParams((0.6,) * m)))
        orders = ((1.0, 3.7, 1.5), (1.5, 1.0, 3.7), (3.7, 1.5, 1.0), (1.5, 3.7, 1.0))
        serial = [self._work(table, alphas) for alphas in orders]
        results: list = [None] * len(orders)
        barrier = threading.Barrier(len(orders))

        def run(k):
            barrier.wait()
            results[k] = [self._work(table, orders[k]) for _ in range(2)]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[expected] * 2 for expected in serial]

    def test_public_results_survive_later_calls(self):
        table = TypeClassTable(12, 3, Mixture(DirichletParams((0.5, 0.5, 0.5))))
        rng = np.random.default_rng(3)
        first, second = rng.dirichlet(np.ones(3), size=(2, GRID_CHUNK))
        lp = batch_route(table, first)
        kl = batch_route(table, first, 1.0)
        renyi = batch_route(table, first, 2.0)
        row = table._row(first[0].tolist())[0]
        grid = table._grid_values(_grid(3), 2.0)
        kept = [a.copy() for a in (lp, kl, renyi, row, grid)]
        later_row = table._row(second[0].tolist())[0]
        later_grid = table._grid_values(_grid(3), 3.0)
        batch_route(table, second, 1.0)
        batch_route(table, second, 3.0)
        table._point(second[0].tolist(), 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(kept, (lp, kl, renyi, row, grid)))
        assert not np.shares_memory(row, later_row) and not np.shares_memory(grid, later_grid)

    @pytest.mark.parametrize(("m", "floats"), [(2, 1), (2, 7 * 91), (3, 7 * 91), (3, 100 * 91)])
    def test_fewer_rows_per_chunk_change_no_value(self, monkeypatch, m, floats):
        """Chunks of 1, 7 and 100 rows (K = 91) give the whole chunks' bits: each row reduces on its own."""
        table = TypeClassTable(90 if m == 2 else 12, m, AlphaNML(2.2, DirichletParams((0.6,) * m)))
        assert table.log_mult.size == 91
        expected = [_hex(table._grid_values(_grid(m), alpha)) for alpha in (1.0, 2.5)]
        monkeypatch.setattr(regret, "_SCRATCH_FLOATS", floats)
        assert [_hex(table._grid_values(_grid(m), alpha)) for alpha in (1.0, 2.5)] == expected

    def test_scratch_stays_within_its_floats_at_large_k(self):
        """At K = 5,001 a chunk holds 26 rows: two scratch arrays of about 1 MiB, not 512 rows' 20 MiB each."""
        table = TypeClassTable(5000, 2, Mixture(DirichletParams((0.5, 0.5))))
        thetas = _grid(2)
        tracemalloc.start()
        try:
            table._grid_values(thetas, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * regret._SCRATCH_FLOATS * 8
