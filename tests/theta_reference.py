"""Test-side routes over theta: the per-cell references, the library's batch route on any rows, the scipy routes.

``reference_*`` are the batch route as it was first written, summing from zero and masking every
batch; the library's routes must give their values bit for bit (signs of zero included).
``batch_route`` runs ``TypeClassTable``'s own batch route, the one ``_grid_values`` takes at m = 2,
on any (P, m) rows. ``maximize_on_simplex`` is ``regret._maximize`` over a vectorized objective,
which ``chunked_values`` evaluates on the grid or lattice in ``_grid_values``' chunks, with its m = 3
refinement on ``scipy.optimize.minimize`` (``scipy_maximize``). ``scipy_*`` are the routes the
library ran on scipy before its ports (``alphanml._ports``): scipy's ``quad`` called at one node at
a time, and scipy's Nelder-Mead; the ports must give their values bit for bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, optimize
from scipy.special import xlogy

from alphanml import log_sum_exp_array
from alphanml.regret import (
    GRID_CHUNK,
    LATTICE_STEP,
    REFINE_ITERS,
    DirichletDensity,
    SimplexPoint,
    _beats,
    _class_table,
    _maximize,
    lex_argmax,
)

PIECES = ((0.0, 1e-3), (1e-3, 1.0 - 1e-3), (1.0 - 1e-3, 1.0))  # integrate_unit_interval's pieces


def reference_log_ptheta(table, thetas):
    """ln p_theta of every class at every row of ``thetas``, (P, K)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    logs = xlogy(1.0, thetas)
    zero = thetas == 0.0
    has_zero = zero.any()
    if has_zero:
        logs[zero] = 0.0
    # c * xlogy(1, theta) == xlogy(c, theta) bit for bit, and summing from
    # zero one symbol at a time keeps the rounding of the per-cell formula
    out = np.zeros((thetas.shape[0], table.counts.shape[0]))
    for i in range(table.m):
        out += logs[:, i, None] * table.columns[i]
    if has_zero:
        for i in range(table.m):
            out[np.ix_(zero[:, i], table.positive[:, i])] = -np.inf
    return out


def reference_renyi_values(table, thetas, alpha):
    """D_alpha(p_theta || predictor) on sequence space, per theta row."""
    if alpha == 1.0:
        return reference_kl_values(table, thetas)
    inner = reference_log_ptheta(table, thetas)
    inner *= alpha
    inner += table.log_mult
    inner += (1.0 - alpha) * table.log_joint
    return log_sum_exp_array(inner, axis=1) / (alpha - 1.0)


def reference_kl_values(table, thetas):
    """KL(p_theta || predictor) on sequence space, per theta row."""
    lp = reference_log_ptheta(table, thetas)
    gap = np.where(np.isfinite(lp), lp - table.log_joint, 0.0)
    lp += table.log_mult
    gap *= np.exp(lp, out=lp)
    return np.sum(gap, axis=1)


def batch_route(table, thetas, alpha=None):
    """The library's batch route at every row of (P, m) ``thetas``: ln p_theta (P, K), or per row D_alpha (KL at 1)."""
    thetas = np.asarray(thetas, dtype=np.float64)
    lp = np.empty((len(thetas), table.log_mult.size))
    finite = table._log_ptheta_batch(thetas, lp, np.empty_like(lp))
    if alpha is None:
        return lp
    return table._kl(lp, finite) if alpha == 1.0 else table._renyi_rows(lp, alpha)


def chunked_values(objective, thetas):
    """objective((P, m) thetas) -> (P,) on GRID_CHUNK rows of thetas per call, as ``_grid_values`` chunks them."""
    return np.concatenate([objective(thetas[start : start + GRID_CHUNK]) for start in range(0, len(thetas), GRID_CHUNK)])


def maximize_on_simplex(m, objective):
    """(SimplexPoint, value) maximizing objective((P, m) thetas) -> (P,): the grid in chunks, each probe as (1, m)."""
    return scipy_maximize(
        m, lambda thetas: chunked_values(objective, thetas), lambda theta: float(objective(np.array([theta]))[0])
    )


def scipy_maximize(m, grid_values, point_value):
    """``regret._maximize`` with its m = 3 refinement on ``scipy.optimize.minimize``, as it ran before the port."""
    if m != 3:
        return _maximize(m, grid_values, point_value)
    thetas = _class_table(LATTICE_STEP, 3).counts / LATTICE_STEP
    vals = grid_values(thetas)
    k = lex_argmax(vals)
    best_v = float(vals[k])
    best_theta = thetas[k]

    def neg(xy):
        t1, t2 = float(xy[0]), float(xy[1])
        t3 = 1.0 - t1 - t2
        if t1 < 0.0 or t2 < 0.0 or t3 < 0.0:
            return math.inf
        return -point_value((t1, t2, t3))

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", category=RuntimeWarning, module="scipy.optimize")  # its inf - inf
        res = optimize.minimize(
            neg, x0=best_theta[:2], method="Nelder-Mead", options={"maxiter": REFINE_ITERS, "xatol": 1e-12, "fatol": 1e-13}
        )
    if math.isfinite(res.fun) and _beats(-float(res.fun), best_v):
        t1 = min(max(float(res.x[0]), 0.0), 1.0)
        t2 = min(max(float(res.x[1]), 0.0), 1.0 - t1)
        best_v = -float(res.fun)
        best_theta = np.array([t1, t2, 1.0 - t1 - t2])
    t1, t2 = float(best_theta[0]), float(best_theta[1])
    return SimplexPoint((t1, t2, 1.0 - t1 - t2)), best_v


def scipy_nelder_mead(func, x0, maxiter, xatol, fatol):
    """(x, fun, nit, nfev) of ``scipy.optimize.minimize(method="Nelder-Mead")`` over func(t1, t2) from x0."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", category=RuntimeWarning, module="scipy.optimize")  # its inf - inf
        res = optimize.minimize(
            lambda xy: func(float(xy[0]), float(xy[1])),
            x0=np.array(x0, dtype=np.float64),
            method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol},
        )
    return tuple(res.x.tolist()), float(res.fun), res.nit, res.nfev


def scipy_quad(f, a, b, epsabs, epsrel, limit):
    """(value, error estimate, evaluations) of ``scipy.integrate.quad(full_output=1)`` of a scalar f over [a, b]."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err, info = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)[:3]
    return value, err, info["neval"]


def scipy_integrate_unit_interval(f):
    """``integrate_unit_interval`` as it ran on scipy: ``quad`` on each piece, calling a scalar f at one node at a time."""
    total = 0.0
    err = 0.0
    for lo, hi in PIECES:
        value, estimate, _ = scipy_quad(f, lo, hi, 1e-11, 1e-12, 200)
        total += value
        err += estimate
    return total, err


def scipy_dirichlet_quadrature(params, weighted):
    """``dirichlet_quadrature`` as it ran on scipy: weighted(density, theta) at one (1, 2) theta at a time.

    The density is ``math.exp`` of ``DirichletDensity.log_pdf`` at that theta.
    """
    density = DirichletDensity(params)

    def integrand(t: float) -> float:
        theta = np.array([[t, 1.0 - t]])
        return weighted(math.exp(density.log_pdf(theta)[0]), theta)

    return scipy_integrate_unit_interval(integrand)


def nodewise(f):
    """A panel integrand for ``integrate_unit_interval`` from a scalar f: f at each node in turn."""
    return lambda nodes: [f(t) for t in nodes.tolist()]
