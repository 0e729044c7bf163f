"""Test-side routes over theta: the per-cell references, the library's batch route on any rows, a maximizer.

``reference_*`` are the batch route as it was first written, summing from zero and masking every
batch; the library's routes must give their values bit for bit (signs of zero included).
``batch_route`` runs ``TypeClassTable``'s own batch route, the one ``_grid_values`` takes at m = 2,
on any (P, m) rows. ``maximize_on_simplex`` is ``regret._maximize`` over a vectorized objective,
which ``chunked_values`` evaluates on the grid or lattice in ``_grid_values``' chunks.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from alphanml import log_sum_exp_array
from alphanml.regret import GRID_CHUNK, _maximize


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
    return _maximize(
        m, lambda thetas: chunked_values(objective, thetas), lambda theta: float(objective(np.array([theta]))[0])
    )
