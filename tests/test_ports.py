"""The port of scipy's Nelder-Mead against scipy itself, by ``float.hex``.

``alphanml._ports.nelder_mead`` must return what ``scipy.optimize.minimize(method="Nelder-Mead")``
returns (x, fun, nit and nfev), bit for bit. A scipy release or a build whose floating point differs
fails here, instead of making the library's m = 3 suprema drift silently.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphanml import AlphaNML, DirichletParams, Mixture, NML, TypeClassTable, kt
from alphanml._ports import nelder_mead
from alphanml.regret import REFINE_ITERS, _class_table
from theta_reference import scipy_nelder_mead


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


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
