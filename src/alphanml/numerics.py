"""Log-domain special functions and stable reductions.

Every probability in this package is carried as a natural-log value: a plain
float where -inf encodes probability zero (type alias ``LogProb``). Sums of
probabilities go through ``log_sum_exp``; the 0 * log(0) = 0 convention is
enforced by the shared ``xlogy`` helper, with one exception:
``regret.TypeClassTable.log_ptheta`` takes ``xlogy(1, theta)`` once per
coordinate, scales it by the counts, and itself puts -inf where a zero
coordinate meets a positive count. Conversions to bits happen only at
output boundaries (divide by ln 2).

Type-class scans evaluate whole arrays at once: ``log_sum_exp`` accepts a
numpy array and reduces it with one vectorized ``exp`` and an exactly
rounded ``math.fsum``, so the result does not depend on the order of the
terms. ``log_gamma`` is the C library ``lgamma``; array callers use
``scipy.special.gammaln``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from scipy import special as _special

LogProb = float  # natural-log probability; -inf encodes zero

LOG_PI = math.log(math.pi)
LOG_TWO = math.log(2.0)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def xlogy(x, y):
    """x * ln(y) with the 0 * ln(0) = 0 convention, elementwise.

    Shared so the convention cannot drift between callers. ln is the C
    library's, so c * xlogy(1, y) == xlogy(c, y) bit for bit.
    """
    return _special.xlogy(x, y)


def log_sum_exp(terms: Iterable[LogProb]) -> LogProb:
    """ln sum(exp(t)) over a finite collection (or array) of log values.

    Shift-by-max with an exactly rounded (fsum) accumulation, so the result
    is invariant under permutations of the input. All -inf yields -inf;
    an empty collection is an error; +inf inputs are rejected.
    """
    if isinstance(terms, np.ndarray):
        values = terms.astype(np.float64, copy=False).ravel()
    else:
        values = np.fromiter(terms, dtype=np.float64)
    if values.size == 0:
        raise ValueError("log_sum_exp of an empty collection")
    hi = float(values.max())
    if hi == -math.inf:
        return -math.inf
    if hi == math.inf:
        raise ValueError("log_sum_exp received +inf")
    return hi + math.log(math.fsum(np.exp(values - hi)))


def log_sum_exp_array(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Vectorized shift-by-max log-sum-exp along an axis (fixed summation order).

    Rows whose maximum is -inf reduce to -inf instead of nan.
    """
    values = np.asarray(values, dtype=np.float64)
    if axis is None:
        flat = values.ravel()
        if flat.size == 0:
            raise ValueError("log_sum_exp of an empty array")
        m = float(np.max(flat))
        if m == -math.inf:
            return -math.inf
        return m + float(np.log(np.sum(np.exp(flat - m))))
    shift = np.max(values, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        shifted = values - safe
        out = np.log(np.sum(np.exp(shifted, out=shifted), axis=axis)) + np.squeeze(safe, axis=axis)
    neg = np.isneginf(np.squeeze(shift, axis=axis))
    if np.any(neg):
        out = np.where(neg, -np.inf, out)
    return out


def log_multinomial(n: int, counts: Sequence[int]) -> float:
    """ln of the multinomial coefficient n! / prod(c_i!).

    Scalar reference for the array multiplicities of ``typeclass``.
    """
    cs = [int(c) for c in counts]
    if any(c < 0 for c in cs):
        raise ValueError(f"negative count in {cs}")
    if sum(cs) != int(n):
        raise ValueError(f"counts {cs} do not sum to n={n}")
    return log_gamma(n + 1.0) - math.fsum(log_gamma(c + 1.0) for c in cs)


def log_multivariate_beta(params: Sequence[float]) -> float:
    """ln B(a) = sum ln Gamma(a_i) - ln Gamma(sum a_i), for positive a_i."""
    ps = np.asarray(params, dtype=np.float64)
    if ps.ndim != 1 or ps.size < 1:
        raise ValueError("params must be a non-empty 1-d sequence")
    if not np.all(ps > 0.0):
        raise ValueError(f"multivariate Beta requires positive parameters, got {ps}")
    return math.fsum(log_gamma(p) for p in ps) - log_gamma(float(ps.sum()))
