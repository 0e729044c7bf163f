"""A plain-Python port of the scipy routine the theta layer runs, with scipy 1.17's bits.

``nelder_mead`` is scipy's ``_minimize_neldermead`` for two variables with the
default, non-adaptive coefficients and no bounds, the refinement of every m = 3
supremum. It does the same floating-point operations in the same order as
scipy, and orders ties as scipy does (``np.argsort`` for the simplex), so it
returns scipy's point, value and counts bit for bit; ``tests/test_ports.py``
compares them by ``float.hex``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def nelder_mead(
    func: Callable[[float, float], float], x0: Sequence[float], maxiter: int, xatol: float, fatol: float
) -> tuple[tuple[float, float], float, int, int]:
    """scipy's Nelder-Mead from x0 in two variables: (x, fun, nit, nfev) of ``minimize(method="Nelder-Mead")``.

    The non-adaptive coefficients, no bounds, at most ``maxiter`` iterations and no cap on
    evaluations. The first simplex scales each nonzero coordinate of x0 by 1 + 0.05 and puts
    0.00025 at a zero one. Vertices are ordered by ``np.argsort``, as scipy orders them: it is not
    stable, and ties (infeasible probes at +inf, say) land where scipy's land.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x1, x2 = float(x0[0]), float(x0[1])
    sim = [
        (x1, x2),
        ((1 + 0.05) * x1 if x1 != 0 else 0.00025, x2),
        (x1, (1 + 0.05) * x2 if x2 != 0 else 0.00025),
    ]
    fsim = [func(*vertex) for vertex in sim]
    nfev = 3

    def order():
        idx = np.argsort(fsim).tolist()
        return [sim[i] for i in idx], [fsim[i] for i in idx]

    sim, fsim = order()
    sim, fsim = order()  # scipy sorts the first simplex twice, and an unstable sort may swap ties again
    iterations = 1
    while iterations < maxiter:
        best = sim[0]
        if all(abs(v[i] - best[i]) <= xatol for v in sim[1:] for i in (0, 1)) and all(
            abs(fsim[0] - fv) <= fatol for fv in fsim[1:]
        ):
            break
        worst = sim[-1]
        xbar = tuple((sim[0][i] + sim[1][i]) / 2 for i in (0, 1))
        xr = tuple((1 + rho) * xbar[i] - rho * worst[i] for i in (0, 1))
        fxr = func(*xr)
        nfev += 1
        doshrink = False
        if fxr < fsim[0]:
            xe = tuple((1 + rho * chi) * xbar[i] - rho * chi * worst[i] for i in (0, 1))
            fxe = func(*xe)
            nfev += 1
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:  # contraction
            xc = tuple((1 + psi * rho) * xbar[i] - psi * rho * worst[i] for i in (0, 1))
            fxc = func(*xc)
            nfev += 1
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                doshrink = True
        else:  # inside contraction
            xcc = tuple((1 - psi) * xbar[i] + psi * worst[i] for i in (0, 1))
            fxcc = func(*xcc)
            nfev += 1
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                doshrink = True
        if doshrink:
            for j in (1, 2):
                sim[j] = tuple(sim[0][i] + sigma * (sim[j][i] - sim[0][i]) for i in (0, 1))
                fsim[j] = func(*sim[j])
                nfev += 1
        iterations += 1
        sim, fsim = order()
    return sim[0], float(np.min(fsim)), iterations, nfev
