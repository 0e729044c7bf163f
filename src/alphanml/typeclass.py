"""Type classes: grouping length-n sequences over an m-ary alphabet by counts.

Every predictor in this package is exchangeable, so any sum over the m^n
sequences collapses to a sum over the C(n+m-1, m-1) occupancy-count vectors,
each weighted by its multinomial multiplicity. ``count_vectors`` returns
every class of (n, m) as one (K, m) integer array in ascending lexicographic
order; above ``_MAX_CLASSES`` classes it raises ``UnsupportedError`` on the
estimate ``count_vector_total`` alone. ``_check_budget`` makes that check,
and the lattice tables' against ``_MAX_LATTICE_ENTRIES``, so both budgets
and their message live here. ``log_multiplicities`` gives their
log multinomial coefficients as a product of binomials read from one table:
a row of ln C(r, c) per distinct suffix sum r, built with one vectorized
log of (r - j) / (j + 1) and one cumulative sum per block of rows. Scans
evaluate predictors on these arrays and reduce them in one step; there is
no per-class route.
``count_vector_ranks`` inverts ``count_vectors``: it gives each count
vector's row in the array of its horizon, by ``_lex_ranks``, the rank
formula that sequence coding also reads its cached prefix ranks with. The
tests check the classes and their multiplicities against a stars-and-bars
enumeration and the scalar ``numerics.log_multinomial``, which share no
code with these arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import UnsupportedError


@dataclass(frozen=True)
class CountVector:
    """Occupancy counts of a sequence: counts[i] = multiplicity of symbol i+1."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) < 2:
            raise ValueError("count vectors need an alphabet of size >= 2")
        try:
            counts = tuple(map(operator.index, self.counts))  # numpy integers become ints, so == and hash match
        except TypeError:
            counts = None
        if counts is None or min(counts) < 0:
            raise ValueError(f"counts must be non-negative integers, got {self.counts}")
        object.__setattr__(self, "counts", counts)

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
        return cls(tuple(np.bincount(_whole_symbols(sequence, m) - 1, minlength=int(m)).tolist()))

    @classmethod
    def zeros(cls, m: int) -> "CountVector":
        return cls((0,) * int(m))


def _whole_symbols(sequence: Sequence[int], m: int) -> np.ndarray:
    """The symbols of a sequence as an int64 array; a symbol that is not a whole number in 1..m is a ValueError."""
    arr = np.array(list(sequence))
    if arr.dtype.kind not in "iub":
        arr = arr.astype(np.float64)
        whole = np.floor(arr) == arr  # False for nan; +-inf is caught as outside the alphabet
        if not whole.all():
            raise ValueError(f"symbols must be whole numbers, got {arr[~whole][0]}")
    if arr.size and (arr.min() < 1 or arr.max() > m):
        raise ValueError(f"symbol {arr[(arr < 1) | (arr > m)][0]:g} outside alphabet 1..{m}")
    return arr.astype(np.int64, copy=False)


def _validate_nm(n: int, m: int) -> tuple[int, int]:
    if not _whole(n) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n}")
    if not _whole(m) or m < 2:
        raise ValueError(f"alphabet size m must be an integer >= 2, got {m}")
    return int(n), int(m)


def _whole(x) -> bool:
    """Whether x is a whole number; nan and +-inf are not, and fail before ``int``, which raises on them."""
    return x == x and abs(x) != math.inf and int(x) == x


# A cold scan peaks at 27-36 m bytes and takes 0.3-0.7 us per class (measured at m = 3..9), so the
# budget's 2^23 classes need 0.8-2.7 GB and up to several seconds; a larger request fails fast.
_MAX_CLASSES = 1 << 23
# A lattice table (``predictors._lattice_table``) peaks at 8-15 bytes and takes 20-140 ns per entry
# (measured at m = 2..6 on a 2-CPU x86-64 host), so the budget's 2^27 entries need 1.1-2.0 GB and 3-18 s, about
# what a cold scan at the class budget needs: binary horizons up to 16,382 and ternary ones up to 928 fit.
_MAX_LATTICE_ENTRIES = 1 << 27


def _check_budget(subject: str, total: int, unit: str, limit: int) -> None:
    """UnsupportedError, with the estimate in its one line, if ``total`` is over ``limit``."""
    if total > limit:
        raise UnsupportedError(f"{subject} has {total:.3g} {unit}, above the enumeration budget of {limit}")


def count_vector_total(n: int, m: int) -> int:
    """Number of type classes: C(n+m-1, m-1)."""
    n, m = _validate_nm(n, m)
    return math.comb(n + m - 1, m - 1)


def count_vectors(n: int, m: int) -> np.ndarray:
    """Every count vector of (n, m) as a (K, m) int array, ascending lexicographic.

    The prefix sums s_0 <= ... <= s_{m-2} of a count vector order the same
    way as the counts, so rows are grown one prefix sum at a time: a row
    ending at s expands in place into rows ending at s, s + 1, ..., n.
    More than ``_MAX_CLASSES`` classes raise UnsupportedError before
    anything is allocated.
    """
    n, m = _validate_nm(n, m)
    _check_budget(f"(n, m) = ({n}, {m})", count_vector_total(n, m), "type classes", _MAX_CLASSES)
    sums = np.arange(n + 1, dtype=np.int64)[:, None]
    for _ in range(m - 2):
        last = sums[:, -1]
        fan = n + 1 - last
        starts = np.repeat(np.cumsum(fan) - fan, fan)
        nxt = np.repeat(last, fan) + np.arange(int(fan.sum())) - starts
        sums = np.hstack([np.repeat(sums, fan, axis=0), nxt[:, None]])
    edges = np.hstack([np.zeros((sums.shape[0], 1), np.int64), sums, np.full((sums.shape[0], 1), n)])
    return np.diff(edges, axis=1)


def count_vector_ranks(counts) -> np.ndarray:
    """Row index of each count vector in ``count_vectors(its total, m)``: the inverse of ``count_vectors``.

    The oracle for sequence coding's prefix ranks, which ``_lex_ranks`` also
    counts. Counts must be a (K, m) array of non-negative integers.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2 or not counts.shape[1]:
        raise ValueError(f"count_vector_ranks takes a (K, m) array of count vectors, got shape {counts.shape}")
    if counts.size and counts.min() < 0:
        raise ValueError(f"counts must be non-negative, got {counts.min()}")
    left = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]  # R_0, ..., R_{m-1}
    return _lex_ranks(_composition_tables(int(left[:, 0].max(initial=0)), counts.shape[1]), left)


def _composition_tables(top: int, m: int) -> np.ndarray:
    """Rows N_1..N_m on r = 0..top: N_p(r) = C(r+p-1, p-1) compositions of r into p parts."""
    tables = np.ones((m, top + 1), dtype=np.int64)
    for p in range(1, m):
        np.cumsum(tables[p - 1], out=tables[p])
    return tables


def _lex_ranks(compositions: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Each row's lex rank among the count vectors of its total, from the counts left R_i = c_i + ... + c_{m-1}.

    The classes before c are, for each i < m-1, those that agree with c before coordinate i and have a smaller
    c_i: N_{m-i}(R_i) - N_{m-i}(R_{i+1}) of them, read from ``_composition_tables`` up to the largest R_0.
    """
    m = left.shape[1]
    ranks = np.zeros(left.shape[0], dtype=np.int64)
    for i in range(m - 1):
        table = compositions[m - 1 - i]  # N_{m-i}
        ranks += table[left[:, i]] - table[left[:, i + 1]]
    return ranks


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
