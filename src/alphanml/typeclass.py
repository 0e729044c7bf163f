"""Type classes: grouping length-n sequences over an m-ary alphabet by counts.

Every predictor in this package is exchangeable, so any sum over the m^n
sequences collapses to a sum over the C(n+m-1, m-1) occupancy-count vectors,
each weighted by its multinomial multiplicity. ``count_vectors`` returns
every class of (n, m) as one (K, m) integer array in ascending lexicographic
order, and ``log_multiplicities`` gives their log multinomial coefficients as
a product of binomials read from one table: a row of ln C(r, c) per distinct
suffix sum r, built with one vectorized log of (r - j) / (j + 1) and one
cumulative sum per block of rows. Scans evaluate predictors on these arrays
and reduce them in one step; ``log_multinomial`` is the exact scalar
fallback.

``reduce_over_type_classes`` is the per-class reference: it calls a Python
term on one ``CountVector`` at a time and reduces every class in one
log-sum-exp. The array scans are checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .numerics import LogProb, log_multinomial, log_sum_exp


@dataclass(frozen=True)
class CountVector:
    """Occupancy counts of a sequence: counts[i] = multiplicity of symbol i+1."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) < 2:
            raise ValueError("count vectors need an alphabet of size >= 2")
        if any((not isinstance(c, int)) or c < 0 for c in self.counts):
            raise ValueError(f"counts must be non-negative integers, got {self.counts}")

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def m(self) -> int:
        return len(self.counts)

    def with_symbol(self, symbol: int) -> "CountVector":
        """Counts after observing one more symbol (1-based)."""
        if not 1 <= symbol <= self.m:
            raise ValueError(f"symbol {symbol} outside alphabet 1..{self.m}")
        cs = list(self.counts)
        cs[symbol - 1] += 1
        return CountVector(tuple(cs))

    @classmethod
    def from_sequence(cls, sequence: Sequence[int], m: int) -> "CountVector":
        cs = [0] * int(m)
        for x in sequence:
            if not 1 <= x <= m:
                raise ValueError(f"symbol {x} outside alphabet 1..{m}")
            cs[x - 1] += 1
        return cls(tuple(cs))

    @classmethod
    def zeros(cls, m: int) -> "CountVector":
        return cls((0,) * int(m))


def _validate_nm(n: int, m: int) -> tuple[int, int]:
    if int(n) != n or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n}")
    if int(m) != m or m < 2:
        raise ValueError(f"alphabet size m must be an integer >= 2, got {m}")
    return int(n), int(m)


def count_vector_total(n: int, m: int) -> int:
    """Number of type classes: C(n+m-1, m-1)."""
    n, m = _validate_nm(n, m)
    return math.comb(n + m - 1, m - 1)


def count_vectors(n: int, m: int) -> np.ndarray:
    """Every count vector of (n, m) as a (K, m) int array, ascending lexicographic.

    The prefix sums s_0 <= ... <= s_{m-2} of a count vector order the same
    way as the counts, so rows are grown one prefix sum at a time: a row
    ending at s expands in place into rows ending at s, s + 1, ..., n.
    """
    n, m = _validate_nm(n, m)
    sums = np.arange(n + 1, dtype=np.int64)[:, None]
    for _ in range(m - 2):
        last = sums[:, -1]
        fan = n + 1 - last
        starts = np.repeat(np.cumsum(fan) - fan, fan)
        nxt = np.repeat(last, fan) + np.arange(int(fan.sum())) - starts
        sums = np.hstack([np.repeat(sums, fan, axis=0), nxt[:, None]])
    edges = np.hstack([np.zeros((sums.shape[0], 1), np.int64), sums, np.full((sums.shape[0], 1), n)])
    return np.diff(edges, axis=1)


def log_multiplicities(counts: np.ndarray) -> np.ndarray:
    """ln n! / prod(c_i!) for each row of a (K, m) count array.

    The multinomial is the product over i < m-1 of binomials C(r_i, c_i),
    where r_i = c_i + ... + c_{m-1} is the count left for coordinates i
    onward; each is read from one table of ln C(r, c) rows, one row per
    distinct r_i (``_log_binomial_rows``).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape[0] == 0:
        return np.zeros(0)
    if counts.min() < 0:
        raise ValueError(f"counts must be non-negative, got {counts.min()}")
    suffix = counts[:, -1]
    rest = []
    for i in range(counts.shape[1] - 2, -1, -1):
        suffix = suffix + counts[:, i]
        rest.append(suffix)
    rest.reverse()  # r_0, ..., r_{m-2}
    present = np.bincount(np.concatenate(rest)) > 0
    keys = np.flatnonzero(present)
    table, starts = _log_binomial_rows(keys)
    slot = np.zeros(present.size, dtype=np.int64)
    slot[keys] = starts
    out = np.zeros(counts.shape[0])
    for i, r in enumerate(rest):
        out += table[slot[r] + counts[:, i]]
    return out


def _log_binomial_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln C(r, c) for c = 0..r and each r of the ascending ``keys``, in one flat table.

    Returns the table and where each r's row starts. A run of keys shares one
    zero-initialized block padded to its largest r, filled by one log of
    (r - j) / (j + 1) and summed along rows by one cumsum; the padding (logs
    of zero and negative ratios) is never read. Runs grow downward from the
    largest key while the block holds at most twice the entries its rows
    need, so every class array of one horizon is a single block, and rows of
    very different lengths never pad to the longest.
    """
    blocks = []
    starts = np.empty(keys.size, dtype=np.int64)
    size = 0
    hi = keys.size
    while hi:
        width = int(keys[hi - 1]) + 1
        need = np.cumsum(keys[hi - 1 :: -1] + 1)  # entries the top 1, 2, ... rows need
        fits = np.arange(1, hi + 1) * width <= 2 * need
        rows = hi if fits.all() else int(np.argmin(fits))
        r = keys[hi - rows : hi, None]
        j = np.arange(width - 1, dtype=np.float64)
        block = np.zeros((rows, width))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log((r - j) / (j + 1.0), out=block[:, 1:])
        blocks.append(np.cumsum(block, axis=1).ravel())
        starts[hi - rows : hi] = size + width * np.arange(rows)
        size += block.size
        hi -= rows
    return np.concatenate(blocks), starts


def enumerate_count_vectors(n: int, m: int) -> Iterator[CountVector]:
    """Stream every count vector of (n, m) exactly once, lexicographically."""
    for row in count_vectors(n, m).tolist():
        yield CountVector(tuple(row))


def iter_with_log_multiplicity(n: int, m: int) -> Iterator[tuple[CountVector, float]]:
    """Stream (count vector, ln multiplicity) pairs in lexicographic order."""
    counts = count_vectors(n, m)
    for row, log_mult in zip(counts.tolist(), log_multiplicities(counts).tolist()):
        yield CountVector(tuple(row)), log_mult


def reduce_over_type_classes(n: int, m: int, term: Callable[[CountVector], LogProb]) -> float:
    """ln sum over type classes of multiplicity * exp(term(counts)).

    The per-class reference for the array scans. ``term`` must be a pure
    function of the count vector; it is called once per class.
    """
    return log_sum_exp([log_mult + term(cv) for cv, log_mult in iter_with_log_multiplicity(n, m)])


def verify_multiplicities(n: int, m: int, rel_tol: float = 1e-12) -> bool:
    """Check the array log multiplicities against the scalar log_multinomial."""
    for cv, log_mult in iter_with_log_multiplicity(n, m):
        exact = log_multinomial(n, cv.counts)
        if not math.isclose(log_mult, exact, rel_tol=rel_tol, abs_tol=1e-12):
            return False
    return True
