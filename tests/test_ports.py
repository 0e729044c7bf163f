"""The ports of QUADPACK's qagse and scipy's Nelder-Mead against scipy itself, by ``float.hex``.

``alphanml._ports`` must return what ``scipy.integrate.quad(full_output=1)`` returns (value, error
estimate and evaluations) and what ``scipy.optimize.minimize(method="Nelder-Mead")`` returns (x,
fun, nit and nfev), bit for bit. A scipy release or a build whose floating point differs (an
aarch64 build that fuses QUADPACK's C into fma instructions, say) fails here, instead of making the
library's values drift silently.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphanml import AlphaNML, DirichletParams, Mixture, NML, TypeClassTable, kt, tilted_params
from alphanml._ports import nelder_mead, qagse
from alphanml.regret import REFINE_ITERS, _class_table
from theta_reference import PIECES, nodewise, scipy_nelder_mead, scipy_quad


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _quad_pair(f, a, b, epsabs=1e-11, epsrel=1e-12, limit=200):
    """(port, scipy) as hex (value, error estimate) plus the evaluation count."""
    value, err, neval, _ = qagse(nodewise(f), a, b, epsabs, epsrel, limit)
    ref_value, ref_err, ref_neval = scipy_quad(f, a, b, epsabs, epsrel, limit)
    return (_hex([value, err]), neval), (_hex([ref_value, ref_err]), ref_neval)


def _guarded(f):
    """f with C's results where Python raises: 1/0 is inf, a log or a power of 0 is -inf or inf."""

    def call(t):
        try:
            return f(t)
        except ZeroDivisionError:
            return math.inf
        except ValueError:
            return -math.inf
    return call


# integrands with endpoint and interior singularities, oscillation, jumps, nan and inf nodes
CLASSIC = {
    "constant": lambda t: 1.0,
    "linear": lambda t: t,
    "sqrt": lambda t: math.sqrt(abs(t)),
    "inverse_sqrt": lambda t: 1.0 / math.sqrt(abs(t)),
    "log": lambda t: math.log(abs(t)),
    "inverse": lambda t: 1.0 / t,  # divergent
    "inverse_square": lambda t: 1.0 / (t * t),
    "power_-0.9": lambda t: abs(t) ** -0.9,
    "right_power_-0.7": lambda t: abs(1.0 - t) ** -0.7,  # no convergence on the last piece: exit code 4
    "arcsine": lambda t: 1.0 / (math.pi * math.sqrt(abs(t * (1.0 - t)))),
    "oscillating": lambda t: math.sin(50.0 * t),
    "step": lambda t: 1.0 if t > 0.3 else 0.0,
    "peak": lambda t: 1.0 / (1e-4 + (t - 0.5) ** 2),
    "interior_log": lambda t: math.log(abs(t - 0.3)),
    "nan": lambda t: math.nan,
    "nan_tail": lambda t: math.nan if t > 0.9 else t,
    "inf": lambda t: math.inf,
    "inf_strip": lambda t: math.inf if 0.2 < t < 0.21 else 1.0,
}
INTERVALS = [*PIECES, (0.0, 1.0), (-1.0, 2.0)]
# (epsabs, epsrel, limit): the library's, scipy's defaults, and tolerances that exhaust a small limit
TOLERANCES = [(1e-11, 1e-12, 200), (1.49e-8, 1.49e-8, 50), (1e-14, 1e-14, 10), (0.0, 1e-10, 30), (1e-6, 0.0, 5), (1e-11, 1e-12, 1)]


class TestQuadratureMatchesScipy:
    @pytest.mark.parametrize("name", sorted(CLASSIC))
    def test_classic_integrands(self, name):
        f = _guarded(CLASSIC[name])
        for a, b in INTERVALS:
            for tolerances in TOLERANCES:
                port, reference = _quad_pair(f, a, b, *tolerances)
                assert port == reference, (name, a, b, tolerances)

    def test_exit_codes(self):
        """Success, the subinterval limit, roundoff, no convergence and divergence all occur above."""
        codes = {
            qagse(nodewise(_guarded(CLASSIC[name])), a, b, *tolerances)[3]
            for name in CLASSIC for a, b in INTERVALS for tolerances in TOLERANCES
        }
        assert {0, 1, 2, 4, 5} <= codes

    @given(
        p=st.floats(-0.95, 3.0), q=st.floats(-0.95, 3.0), scale=st.floats(0.1, 10.0),
        piece=st.sampled_from(INTERVALS[:4]), tolerances=st.sampled_from(TOLERANCES),
    )
    @example(p=-0.95, q=-0.95, scale=1.0, piece=(0.0, 1.0), tolerances=TOLERANCES[0])
    @settings(max_examples=150, deadline=None)
    def test_beta_integrands(self, p, q, scale, piece, tolerances):
        """scale t^p (1 - t)^q: endpoint singularities of every strength below 1."""
        port, reference = _quad_pair(_guarded(lambda t: scale * t**p * (1.0 - t) ** q), *piece, *tolerances)
        assert port == reference

    @given(
        n=st.integers(0, 14),
        a=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
        alpha=st.sampled_from((1.5, 3.7, 12.0)),
        piece=st.sampled_from(PIECES),
    )
    @settings(max_examples=20, deadline=None)
    def test_library_integrands(self, n, a, alpha, piece):
        """The order-one radius, the average luckiness regret and the tilted alpha-regret, panel by panel."""
        params = DirichletParams(a)
        tilt = tilted_params(alpha, DirichletParams((a[0] + 0.7, a[1] + 0.7)))
        radius, average = TypeClassTable(n, 2, Mixture(params)), TypeClassTable(n, 2, AlphaNML(1.7, params))

        def kl(table):
            return lambda t: math.exp(float(params.log_pdf([(t, 1.0 - t)])[0])) * table._point((t, 1.0 - t), 1.0)

        def tilted(t):
            hi, total = (float(x[0]) for x in average._renyi_sums(average._row((t, 1.0 - t))[0][None, :], alpha))
            return math.exp(float(tilt.log_pdf([(t, 1.0 - t)])[0])) * math.exp(hi) * total

        for f in (kl(radius), kl(average), tilted):
            try:
                port, reference = _quad_pair(f, *piece)
            except OverflowError:  # e^hi beyond the float range, on both routes alike
                continue
            assert port == reference


def _objective(table, alpha, density):
    """-(ln density +) D_alpha at (t1, t2, 1 - t1 - t2), +inf off the simplex: what ``_maximize`` hands Nelder-Mead."""

    def neg(t1, t2):
        t3 = 1.0 - t1 - t2
        if t1 < 0.0 or t2 < 0.0 or t3 < 0.0:
            return math.inf
        value = table._point((t1, t2, t3), alpha)
        return -(value if density is None else float(density.log_pdf([(t1, t2, t3)])[0]) + value)

    return neg


_LATTICE = (_class_table(256, 3).counts[:, :2] / 256).tolist()  # the (t1, t2) of every start ``_maximize`` may take


class TestNelderMeadMatchesScipy:
    @given(
        n=st.integers(0, 12),
        alpha=st.sampled_from((1.0, 1.5, 2.0, 3.7, 12.0)),
        predictor=st.sampled_from((kt(3), NML(), AlphaNML(2.0, DirichletParams((0.7, 1.6, 0.9))),
                                   Mixture(DirichletParams((1.0, 1.0, 1.0))))),
        b=st.sampled_from((None, (1.5, 2.0, 1.25), (0.8, 1.2, 1.0))),
        x0=st.sampled_from(_LATTICE),
    )
    @example(n=8, alpha=2.0, predictor=kt(3), b=None, x0=[0.0, 0.0])  # a vertex: two probes off the simplex
    @example(n=8, alpha=2.0, predictor=kt(3), b=None, x0=[1.0, 0.0])
    @example(n=5, alpha=1.5, predictor=NML(), b=(0.8, 1.2, 1.0), x0=[0.0, 0.5])  # an edge, +inf density there
    @settings(max_examples=40, deadline=None)
    def test_library_objectives(self, n, alpha, predictor, b, x0):
        """Every start of the m = 3 lattice, maxima on the simplex's edges and vertices included."""
        density = None if b is None else DirichletParams(b)
        f = _objective(TypeClassTable(n, 3, predictor), alpha, density)
        port = nelder_mead(f, x0, REFINE_ITERS, 1e-12, 1e-13)
        reference = scipy_nelder_mead(f, x0, REFINE_ITERS, 1e-12, 1e-13)
        assert (_hex(port[0]), _hex([port[1]]), port[2:]) == (_hex(reference[0]), _hex([reference[1]]), reference[2:])

    @pytest.mark.parametrize(
        "f, x0",
        [
            (lambda x, y: (x - 0.3) ** 2 + (y - 0.2) ** 2, [0.5, 0.5]),
            (lambda x, y: math.inf, [0.2, 0.3]),  # every vertex ties at +inf
            (lambda x, y: 0.0, [0.0, 0.0]),  # every vertex ties at 0, and both coordinates start at zero
            (lambda x, y: math.nan if x > 0.5 else x * x + y * y, [0.6, 0.1]),
            (lambda x, y: -x - y if x + y <= 1.0 else math.inf, [0.25, 0.75]),  # the maximum on an edge
        ],
    )
    def test_ties_and_degenerate_objectives(self, f, x0):
        port = nelder_mead(f, x0, REFINE_ITERS, 1e-12, 1e-13)
        reference = scipy_nelder_mead(f, x0, REFINE_ITERS, 1e-12, 1e-13)
        assert (_hex(port[0]), _hex([port[1]]), port[2:]) == (_hex(reference[0]), _hex([reference[1]]), reference[2:])
