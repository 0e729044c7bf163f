"""Log-domain special functions and stable reductions.

Every probability in this package is carried as a natural-log value: a plain
float where -inf encodes probability zero (type alias ``LogProb``). Sums of
probabilities go through ``log_sum_exp``; the 0 * log(0) = 0 convention is
enforced by the shared ``xlogy`` helper, with one exception:
``regret.TypeClassTable`` takes ``xlogy(1, theta)`` once per coordinate
(``math.log``, the same C library log, for a lone interior theta), scales
it by the counts, and itself puts -inf where a zero coordinate meets a
positive count. Conversions to bits happen only at
output boundaries (divide by ln 2).

Type-class scans evaluate whole arrays at once: ``log_sum_exp`` accepts a
numpy array and reduces it with one vectorized ``exp`` and an exactly
rounded ``math.fsum``, so the result does not depend on the order of the
terms. ``log_gamma`` is the C library ``lgamma``, for scalars. Array scans
call ``scipy.special.gammaln`` and ``xlogy`` once per symbol on a table over
k = 0..max count and gather every class's cells from it
(``predictors.log_numerators``), so a scan of K classes makes about
m * (n + 1) cell evaluations plus one per class for its row total.

``accept_quadrature`` is the one acceptance test for quadratures: a value
is returned only if it is finite and its error estimate is within bound.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from scipy import special as _special

from .exceptions import NumericError

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
    an empty collection is an error; +inf inputs are rejected; a nan term
    raises NumericError.
    """
    if isinstance(terms, np.ndarray):
        values = terms.astype(np.float64, copy=False).ravel()
    else:
        values = np.fromiter(terms, dtype=np.float64)
    if values.size == 0:
        raise ValueError("log_sum_exp of an empty collection")
    hi = float(values.max())  # nan if any term is nan
    if math.isnan(hi):
        raise NumericError("log_sum_exp received nan")
    if hi == -math.inf:
        return -math.inf
    if hi == math.inf:
        raise ValueError("log_sum_exp received +inf")
    return hi + math.log(math.fsum(memoryview(np.exp(values - hi))))


def log_sum_exp_array(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Vectorized shift-by-max log-sum-exp along an axis (fixed summation order).

    Rows whose maximum is -inf (+inf) reduce to -inf (+inf) instead of nan.
    A nan term raises NumericError. Only a nan term makes a row's maximum
    nan, so the check reads the reduced maxima, one per row, and only when
    one of them is not finite.
    """
    values = np.asarray(values, dtype=np.float64)
    if axis is None:
        flat = values.ravel()
        if flat.size == 0:
            raise ValueError("log_sum_exp of an empty array")
        m = float(np.max(flat))  # nan if any term is nan
        if math.isinf(m):
            return m
        out = m + float(np.log(np.sum(np.exp(flat - m))))
        if math.isnan(out):
            raise NumericError("log_sum_exp_array received nan")
        return out
    shift = np.max(values, axis=axis, keepdims=True)  # nan in a row with a nan term
    finite = np.isfinite(shift)
    safe = np.where(finite, shift, 0.0)
    with np.errstate(divide="ignore"):
        shifted = values - safe
        out = np.log(np.sum(np.exp(shifted, out=shifted), axis=axis)) + np.squeeze(safe, axis=axis)
    if not finite.all():
        shift = np.squeeze(shift, axis=axis)
        if np.isnan(shift).any():
            raise NumericError("log_sum_exp_array received nan")
        out = np.where(np.isneginf(shift), -np.inf, out)
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


def accept_quadrature(value: float, err: float, bound: float, what: str) -> float:
    """value, if it is finite and its error estimate is within bound.

    Otherwise raises NumericError carrying value. A nan value, error
    estimate or bound fails the test.
    """
    if math.isfinite(value) and err <= bound:
        return value
    raise NumericError(
        f"quadrature for {what} failed (value={value:.3e}, err={err:.3e}, bound={bound:.3e})",
        partial=value,
    )
