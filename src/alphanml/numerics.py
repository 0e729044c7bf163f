"""Log-domain special functions and stable reductions.

Every probability in this package is carried as a natural-log value: a plain
float where -inf encodes probability zero (type alias ``LogProb``). Sums of
probabilities go through ``log_sum_exp``; the 0 * log(0) = 0 convention is
enforced by the shared ``xlogy`` helper, with one exception on the same C
library log: ``regret.TypeClassTable`` takes ``xlogy(1, theta)`` once per
coordinate (``math.log`` for a lone theta; a table of products for the
m = 3 lattice), scales it by the counts, and itself puts -inf where a zero
coordinate meets a positive count. Conversions to bits happen only at
output boundaries (divide by ln 2).

Type-class scans evaluate whole arrays at once: ``log_sum_exp`` accepts a
numpy array and reduces it with one vectorized ``exp`` and a correctly
rounded sum, the bits of ``math.fsum``, so the result does not depend on
the order of the terms. Below ``_EXACT_SUM_FROM`` terms it is fsum, which
walks them one by one; from there ``_exact_sum`` gets the same bits from a
few whole-array passes: error-free extraction (Rump, Ogita & Oishi 2008)
brackets the sum, and a bracket that straddles a rounding boundary falls
back to fsum. ``log_gamma`` is the C library ``lgamma``, for scalars.
Array scans call ``gammaln`` and ``xlogy`` once per symbol on a table over
k = 0..max count and gather each symbol's column of cells from it
(``predictors._separable_rows``, on each kind's separable form). The
columns are added left to right, which for m < 8 gives the bits of numpy's
row sums; single rows and m >= 8 keep ``sum(axis=1)``, which sums rows of
8 or more elements pairwise. A scan of K classes makes about m * (n + 1)
cell evaluations plus its row totals: one when every class's total is the
same float, as the mixture's are, and one per class otherwise.

``gammaln`` and ``xlogy`` have two routes with the same bits. One is a
plain-Python port, cell by cell with ``math.log``: ``_lgam`` is the Cephes
``lgam`` that ``scipy.special.gammaln`` is built on, and ``_xlogy`` is
0 where x == 0 and y is not nan, else x ln y. The other is
``scipy.special``'s ufunc. A process starts on the ports, so a CLI process
that stays small never imports scipy. It switches to scipy for good on the
first call that finds ``scipy.special`` already loaded, whose import is
then paid, or that would take the ports past ``_PORT_CELLS`` cells in all,
about what that import costs. The tests compare the ports with scipy by
``float.hex``, on x86-64 Linux only: where a compiler fuses Cephes'
``ans * x + c`` into one fma, as aarch64 builds may, scipy's last bits
can differ from the ports', which round twice.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Sequence

import numpy as np

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
    """x * ln(y) with the 0 * ln(0) = 0 convention, elementwise: 0 where x == 0 and y is not nan.

    Shared so the convention cannot drift between callers. ln is the C
    library's, so c * xlogy(1, y) == xlogy(c, y) bit for bit. The bits of
    ``scipy.special.xlogy`` on either route.
    """
    if _special is not None:
        return _special.xlogy(x, y)
    return _route("xlogy", _xlogy, x, y)


def gammaln(x):
    """ln |Gamma(x)| elementwise, with the bits of ``scipy.special.gammaln`` on either route."""
    if _special is not None:
        return _special.gammaln(x)
    return _route("gammaln", _lgam, x)


_special = None  # scipy.special, once the routes have switched to it for good
_port_cells = 0  # cells the ports have evaluated in this process; unlocked, since a lost update only moves the switch
# The ports take 0.2-1.4 us per cell and importing scipy.special takes about 0.3 s (measured on a 2-CPU
# x86-64 host), so 2^18 port cells cost about one import; a process that needs more pays for the import.
_PORT_CELLS = 1 << 18


def _route(name: str, port, *args):
    """``port`` cell by cell over the broadcast arguments cast to float64, or scipy.special's ``name``.

    The switch to scipy is for good, and happens on the first call that
    finds ``scipy.special`` loaded, or that would take the ports past
    ``_PORT_CELLS`` cells in all. Only arguments that take the ufuncs'
    float64 loop reach the ports (``_float64_loop``); others go to scipy,
    and so switch. 0-d input gives an np.float64, as a ufunc's does.
    """
    global _special, _port_cells
    special = sys.modules.get("scipy.special")
    if special is None:
        arrays = [np.asarray(a) for a in args]
        cells = np.broadcast(*arrays).size
        if _float64_loop(args, arrays) and _port_cells + cells <= _PORT_CELLS:
            _port_cells += cells
            arrays = np.broadcast_arrays(*(a.astype(np.float64, copy=False) for a in arrays))
            values = np.fromiter(map(port, *(a.ravel().tolist() for a in arrays)), np.float64, cells)
            return values.reshape(arrays[0].shape)[()]
        from scipy import special
    _special = special
    return getattr(special, name)(*args)


def _float64_loop(args: tuple, arrays: list[np.ndarray]) -> bool:
    """Whether the ufuncs' float64 loop computes ``args``, whatever the order of their float32 and float64 loops.

    Every argument must be real and cast safely to float64, and float32 must
    not hold them all: either every argument is a Python int or float (numpy
    then takes int64 or float64), or some array argument has a dtype that
    does not cast safely to float32. A Python scalar beside arrays is weak
    and leaves the choice to them, so float32 arrays, small integers and
    bools go to scipy.
    """
    if not all(a.dtype.kind in "biuf" and np.can_cast(a.dtype, np.float64) for a in arrays):
        return False
    strong = [a.dtype for arg, a in zip(args, arrays) if type(arg) not in (int, float)]
    return not strong or any(not np.can_cast(dtype, np.float32) for dtype in strong)


def _xlogy(x: float, y: float) -> float:
    """scipy's xlogy of two floats: ln 0 is -inf and the ln of a negative is nan, where ``math.log`` raises."""
    if x == 0.0 and y == y:
        return 0.0
    return x * (math.log(y) if y > 0.0 else -math.inf if y == 0.0 else math.nan)


# Cephes lgam (S. L. Moshier, Cephes Math Library, gamma.c), the routine behind scipy.special.gammaln:
# polynomial coefficients, highest power first; C's leading 1 is implied
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # ln sqrt(2 pi)


def _lgam(x: float) -> float:
    """Cephes lgam, operation for operation: the same C library log, products and sums in the same order."""
    if not math.isfinite(x):
        return x
    if x < -34.0:  # Cephes reflects through sin(pi x), which is not ported; the library never gets here
        from scipy.special import gammaln as scipy_gammaln

        return float(scipy_gammaln(x))
    if x < 13.0:  # a recurrence into [2, 3), then x B(x) / C(x) there
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        z = abs(z)
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        b0, b1, b2, b3, b4, b5 = _LGAM_B
        c0, c1, c2, c3, c4, c5 = _LGAM_C
        num = x * (((((b0 * x + b1) * x + b2) * x + b3) * x + b4) * x + b5)
        den = (((((x + c0) * x + c1) * x + c2) * x + c3) * x + c4) * x + c5
        return math.log(z) + num / den
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI  # Stirling's series
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.08333333333333333) / x
    a0, a1, a2, a3, a4 = _LGAM_A
    return q + ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x


def log_sum_exp(terms: Iterable[LogProb]) -> LogProb:
    """ln sum(exp(t)) over a finite collection (or array) of log values.

    Shift-by-max with a correctly rounded accumulation, the bits of
    ``math.fsum`` over the shifted exponentials (``_exact_sum``: fsum below
    ``_EXACT_SUM_FROM`` terms, else an extraction bracket with fsum as its
    fallback), so the result is invariant under permutations of the
    input. All -inf yields -inf;
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
    return hi + math.log(_exact_sum(np.exp(values - hi)))


# fsum walks its terms one by one in C, 20-90 ns each as their exponents spread, while the extraction
# costs 8-15 us of numpy calls plus a few whole-array passes; on a 2-CPU x86-64 host the two crossed
# at 450-650 terms of real normalizers
_EXACT_SUM_FROM = 512


def _exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x)`` bit for bit, for a 1-d float64 array of n finite values in [0, 1].

    Below ``_EXACT_SUM_FROM`` terms it is fsum. From there it extracts
    (Rump, Ogita & Oishi, "Accurate floating-point summation part I", SIAM
    J. Sci. Comput. 31(1), 2008, ExtractVector). With 2^t >= n + 2 and
    sigma = 2^s >= 2^t max|r|, q = (r + sigma) - sigma is r rounded to a
    multiple of ulp(sigma) / 2 with |q| <= sigma 2^-t, so every partial sum
    of the q is such a multiple no larger than sigma, and q.sum() is exact
    in any order; r - q is exact too, and at most ulp(sigma) / 2 in size,
    which sets the next level's sigma. After the second level, and a third,
    the true sum lies within rb = n ulp(sigma) / 2 of the sum T of the
    parts, rb known without a pass. Rounding to nearest is monotone, so when
    T - rb and T + rb round alike, that is the correctly rounded sum: fsum's.
    A bracket still open after the third level, as around a sum on a
    halfway point, falls back to fsum over the array.
    """
    n = x.size
    if n < _EXACT_SUM_FROM:
        return math.fsum(memoryview(x))
    t = (n + 1).bit_length()
    s = t  # max|x| <= 1
    parts, r, q = [], x, None
    for level in (1, 2, 3):
        sigma = math.ldexp(1.0, s)
        q = np.add(r, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        s += t - 53  # the next sigma is 2^t times the bound ulp(sigma) / 2 on r - q
        if level > 1:
            rb = math.ldexp(n, s - t)
            low = math.fsum(parts + [-rb])
            if low == math.fsum(parts + [rb]):
                return low
        if level < 3:
            r = np.subtract(r, q, out=None if r is x else r)
    return math.fsum(memoryview(x))


def log_sum_exp_array(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Vectorized shift-by-max log-sum-exp along an axis (fixed summation order).

    Rows whose maximum is -inf (+inf) reduce to -inf (+inf) instead of nan.
    ``axis=None`` reduces the whole array as one row and returns a float.
    A nan term raises NumericError.
    """
    values = np.asarray(values, dtype=np.float64)
    whole = axis is None
    if whole:
        if values.size == 0:
            raise ValueError("log_sum_exp of an empty array")
        values, axis = values.reshape(1, -1), 1
    # only a nan term makes a row's maximum nan, so the nan check reads the
    # reduced maxima, one per row, and only when one of them is not finite
    shift = np.max(values, axis=axis, keepdims=True)
    finite = np.isfinite(shift)
    safe = np.where(finite, shift, 0.0)
    with np.errstate(divide="ignore"):
        shifted = values - safe
        result = np.log(np.sum(np.exp(shifted, out=shifted), axis=axis)) + np.squeeze(safe, axis=axis)
    if not finite.all():
        shift = np.squeeze(shift, axis=axis)
        if np.isnan(shift).any():
            raise NumericError("log_sum_exp_array received nan")
        result = np.where(np.isneginf(shift), -np.inf, result)
    return float(result[0]) if whole else result


def log_multinomial(n: int, counts: Sequence[int]) -> float:
    """ln of the multinomial coefficient n! / prod(c_i!).

    Scalar reference for the array multiplicities of ``typeclass``, so it
    checks its own arguments: n and every count must be whole numbers.
    """
    cs = list(counts)
    if not all(float(x).is_integer() for x in (n, *cs)):  # nan and +-inf are not
        raise ValueError(f"n and the counts must be whole numbers, got n={n}, counts={cs}")
    cs = [int(c) for c in cs]
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
    if not (ps > 0.0).all():
        raise ValueError(f"multivariate Beta requires positive parameters, got {ps}")
    return math.fsum(map(log_gamma, ps.tolist())) - log_gamma(float(ps.sum()))

