"""Predictor family over discrete memoryless sources.

Five predictor kinds share one evaluation surface:

* ``Mixture(a)``        - Bayes mixture under a Dirichlet(a) prior; the
                          Jeffreys case a = (1/2, ..., 1/2) is the KT
                          estimator and a = (1, ..., 1) is Laplace's rule.
* ``AlphaNML(alpha, a)``- power-of-alpha mixture, renormalized at horizon n:
                          joint proportional to (integral of w * p^alpha)^(1/alpha).
                          alpha = 1 is exactly the mixture; alpha -> infinity
                          approaches NML.
* ``NML()``             - normalized maximum likelihood: joint proportional
                          to the maximized likelihood of the counts.
* ``LuckinessNML(b)``   - NML with the likelihood tilted by a Dirichlet(b)
                          luckiness density inside the supremum.
* ``LuckinessAlphaNML(alpha, b)`` - the alpha family with the same tilt;
                          the tilted prior has parameters alpha*(b-1)+1,
                          which must stay positive for the integral to exist.

All joints are exchangeable (functions of the count vector alone) and are
computed in the natural-log domain. ``_separable`` is the one per-kind
dispatch: it gives each kind's separable form, a per-symbol cell map
k -> v_i(k), a special function f (``gammaln`` or x ln x), a divisor alpha,
the Dirichlet parameters whose ln B is subtracted, and the alphabet size
the parameters pin. The unnormalized log joint of counts c is
(sum_i f(v_i(c_i)) - f(sum_i v_i(c_i)) - ln B) / alpha, and
``log_numerators``, ``spec_alphabet_size``, ``log_dirichlet_alpha_integral``,
``log_joints`` and the one-step ``conditional_distribution`` read that
form. A scan evaluates f once per symbol on k = 0..max count and gathers
every class's cells from those tables. ``log_joints``
subtracts the horizon's log normalizer. ``log_normalizer`` reduces
multiplicities plus numerators over the array of all type classes. There is
one cache, ``DEFAULT_CACHE``, a thread-safe least-recently-used memo keyed by
(builder, spec, n, m) and bounded in charged floats: every joint, regret and
information radius memoizes its normalizers there, every type-class scan
reads the classes of (n, m) and their log multiplicities from one read-only
class table there (``_class_table``, keyed by (n, m) alone),
``cumulative_log_loss`` memoizes its lattice tables, and
``DEFAULT_CACHE.clear()`` empties it. Only
``log_normalizer`` takes ``cache=`` (another ``NormalizerCache``, or None
for no memo), because the benchmark's scaling probe times it with
``cache=None``. A scan that already holds every class
(``log_joints(..., complete=True)``) hands its classes and numerators to the
normalizer on a cache miss instead of enumerating again.
``cumulative_log_loss`` codes a whole sequence with one gather from a flat
table of prefix marginals: one backward pass over the lattice of prefix
counts of (spec, horizon, m), stored level by level in the order of
``count_vectors(horizon, m + 1)``, so each prefix is read at its lex rank.
Its ``DEFAULT_CACHE`` entry holds the table and the composition tables the
ranks are counted with, so a sequence whose table is cached costs one lookup.
``conditional_distribution`` answers a
next-symbol query of a Beta-ratio kind one step ahead in closed form, and
any other query by enumerating the suffix classes after each symbol.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import gammaln

from .exceptions import InfeasibleModelError
from .numerics import (
    LogProb,
    log_gamma,
    log_multivariate_beta,
    log_sum_exp,
    xlogy,
)
from .typeclass import (
    CountVector,
    _composition_tables,
    _lex_ranks,
    _validate_nm,
    _whole_symbols,
    count_vectors,
    log_multiplicities,
)

_INTEGER_PRODUCT_CAP = 4096  # largest alpha unrolled as an explicit product


@dataclass(frozen=True)
class DirichletParams:
    """Parameters of a Dirichlet distribution on the m-simplex; all positive."""

    a: tuple[float, ...]

    def __post_init__(self):
        if len(self.a) < 2:
            raise ValueError("Dirichlet parameters need length >= 2")
        if any((not math.isfinite(x)) or x <= 0.0 for x in self.a):
            raise ValueError(f"Dirichlet parameters must be positive and finite, got {self.a}")

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def total(self) -> float:
        return math.fsum(self.a)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.a, dtype=np.float64)

    @classmethod
    def jeffreys(cls, m: int) -> "DirichletParams":
        return cls((0.5,) * int(m))

    @classmethod
    def uniform(cls, m: int) -> "DirichletParams":
        return cls((1.0,) * int(m))


class PredictorSpec:
    """Immutable, hashable description of a predictor (a tagged union)."""


@dataclass(frozen=True)
class Mixture(PredictorSpec):
    a: DirichletParams


@dataclass(frozen=True)
class AlphaNML(PredictorSpec):
    alpha: float
    a: DirichletParams

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1.0):
            raise ValueError(f"alpha must be a finite real >= 1, got {self.alpha}")


@dataclass(frozen=True)
class NML(PredictorSpec):
    """Normalized maximum likelihood; it has no parameters."""


@dataclass(frozen=True)
class LuckinessNML(PredictorSpec):
    b: DirichletParams


@dataclass(frozen=True)
class LuckinessAlphaNML(PredictorSpec):
    alpha: float
    b: DirichletParams

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1.0):
            raise ValueError(f"alpha must be a finite real >= 1, got {self.alpha}")
        tilted_params(self.alpha, self.b)  # raises if the tilt is infeasible


def kt(m: int) -> Mixture:
    """KT estimator: Dirichlet(1/2, ..., 1/2) mixture."""
    return Mixture(DirichletParams.jeffreys(m))


def laplace(m: int) -> Mixture:
    """Laplace's rule of succession: Dirichlet(1, ..., 1) mixture."""
    return Mixture(DirichletParams.uniform(m))


def tilted_params(alpha: float, b: DirichletParams) -> DirichletParams:
    """Parameters alpha*(b_i - 1) + 1 of the tilted luckiness prior.

    The tilted density is integrable iff every parameter is positive; an
    infeasible tilt is a model that does not exist, not a numeric failure.
    """
    vals = tuple(alpha * (x - 1.0) + 1.0 for x in b.a)
    if any(v <= 0.0 for v in vals):
        raise InfeasibleModelError(
            f"tilted luckiness prior is not integrable: alpha*(b_i-1)+1 must be "
            f"positive for every i, got {vals} from alpha={alpha}, b={b.a}"
        )
    return DirichletParams(vals)


def spec_alphabet_size(spec: PredictorSpec) -> int | None:
    """The alphabet size pinned by the predictor's parameters, if any."""
    return _separable(spec).m


def _checked_form(spec: PredictorSpec, m: int) -> _Separable:
    """The spec's separable form, after checking that its parameters are over m symbols."""
    form = _separable(spec)
    if form.m is not None and form.m != m:
        raise ValueError(f"spec is over an alphabet of size {form.m}, got m={m}")
    return form


def log_ml(counts: CountVector) -> LogProb:
    """ln of the maximized likelihood: sum c_i ln(c_i / n), with 0 ln 0 = 0."""
    return float(log_numerators(NML(), [counts.counts])[0])


def log_dirichlet_alpha_integral(counts: CountVector, alpha: float, a: DirichletParams) -> LogProb:
    """ln integral of Dirichlet(a) * p_theta^alpha over the simplex.

    Closed form: ln B(alpha*counts + a) - ln B(a), the alpha family's log
    numerator before its 1/alpha power.
    """
    if counts.m != a.m:
        raise ValueError(f"counts have m={counts.m}, prior has m={a.m}")
    return float(_separable_rows(_separable(AlphaNML(alpha, a)), np.array([counts.counts]))[0])


def log_luckiness_supremum(counts: CountVector, b: DirichletParams) -> LogProb:
    """ln sup over theta of Dirichlet(b)(theta) * p_theta(counts).

    With exponents e_i = n_i + b_i - 1 the supremum sits at theta_i = e_i / E
    and equals sum e_i ln(e_i / E) - ln B(b). Any negative exponent makes the
    supremum infinite, i.e. the luckiness NML does not exist for that b.
    """
    if counts.m != b.m:
        raise ValueError(f"counts have m={counts.m}, luckiness has m={b.m}")
    return float(log_numerators(LuckinessNML(b), [counts.counts])[0])


def _as_counts(counts) -> np.ndarray:
    """counts as an integer array; a negative or non-whole count, which would
    wrap or miss a table index, is a ValueError."""
    arr = np.asarray(counts)
    if arr.dtype.kind not in "iu":
        whole = np.isfinite(arr) & (np.floor(arr) == arr)
        if not whole.all():
            raise ValueError(f"counts must be whole numbers, got {arr[~whole].flat[0]}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size and arr.min() < 0:
        raise ValueError(f"counts must be non-negative, got {arr.min()}")
    return arr


def _xlogx(x: np.ndarray) -> np.ndarray:
    return xlogy(x, x)


class _Separable(NamedTuple):
    """A kind's unnormalized log joint: (sum_i f(v_i) - f(sum_i v_i) - ln B(beta)) / alpha.

    The kinds with f = ``gammaln`` (the mixture, alpha-NML and luckiness
    alpha-NML) have Beta-ratio joints: B(v)^(1/alpha) up to a constant, with
    cells v_i = alpha * c_i + a_i. NML and luckiness NML have f = x ln x.
    """

    cell: Callable[[np.ndarray], np.ndarray]  # float counts k -> the cells v_i(k) of every symbol i
    f: Callable[[np.ndarray], np.ndarray]  # gammaln or x ln x
    alpha: float
    beta: DirichletParams | None  # the parameters whose ln B is subtracted, if any
    m: int | None  # the alphabet size the parameters pin


def _separable(spec: PredictorSpec) -> _Separable:
    """The one per-kind dispatch. Building a form costs one tuple: cells and ln B are computed on use."""
    if isinstance(spec, (Mixture, AlphaNML)):
        alpha = getattr(spec, "alpha", 1.0)
        return _Separable(lambda k: alpha * k + spec.a.as_array(), gammaln, alpha, spec.a, spec.a.m)
    if isinstance(spec, NML):
        return _Separable(lambda k: k, _xlogx, 1.0, None, None)
    if isinstance(spec, LuckinessNML):
        return _Separable(lambda k: k + spec.b.as_array() - 1.0, _xlogx, 1.0, spec.b, spec.b.m)
    if isinstance(spec, LuckinessAlphaNML):
        cell = lambda k: spec.alpha * k + tilted_params(spec.alpha, spec.b).as_array()  # noqa: E731
        return _Separable(cell, gammaln, spec.alpha, None, spec.b.m)
    raise TypeError(f"unknown predictor spec {spec!r}")


def _separable_rows(form: _Separable, counts: np.ndarray) -> np.ndarray:
    """sum_i f(v_i) - f(sum_i v_i) - ln B(beta) per row, with v_i = cell(c_i) for symbol i.

    When K > max count + 1, ``cell`` and ``f`` run once per symbol on
    k = 0..max count and the (K, m) cells are gathered from those tables;
    smaller arrays (single rows, m = 2 scans where K = n + 1) evaluate every
    cell. Each cell holds the same float either way and rows are summed the
    same way, so both routes agree bit for bit. The row-total term stays
    per row: the float sum of the cells differs from row to row in its last
    bits.
    """
    cell, f = form.cell, form.f
    rows, m = counts.shape
    top = int(counts.max()) if rows > 1 else 0
    if rows > top + 1:
        k = np.arange(top + 1, dtype=np.float64)[:, None]
        table = np.broadcast_to(cell(k), (top + 1, m)).ravel()
        at = counts * m + np.arange(m)  # flat index of cell (c_i, i)
        values = table[at]
        terms = f(table)[at]
    else:
        values = cell(counts.astype(np.float64))
        terms = f(values)
    out = terms.sum(axis=1) - f(values.sum(axis=1))
    if form.beta is not None:
        out -= log_multivariate_beta(form.beta.a)
    return out


def log_numerators(spec: PredictorSpec, counts) -> np.ndarray:
    """Unnormalized log joints of every row of a (K, m) count array.

    Each kind is a sum of per-symbol terms minus a function of the row's
    total (``_separable``), so a scan reads the per-symbol terms from
    tables over k = 0..max count. Counts must be non-negative whole numbers
    (ValueError otherwise).
    Constants common to all count vectors of a horizon may be dropped, so
    only differences at a fixed n, and ``log_joints``, are meaningful.
    """
    cs = _as_counts(counts)
    form = _checked_form(spec, cs.shape[1])
    if form.beta is not None and form.f is _xlogx and np.any(low := form.cell(0.0) < 0.0):
        # luckiness NML: an exponent e_i = c_i + b_i - 1 of the tilted supremum is negative iff c_i = 0 and b_i < 1
        bad = np.flatnonzero(np.any((cs == 0) & low, axis=1))
        if bad.size:
            row = cs[bad[0]]
            raise InfeasibleModelError(
                f"luckiness NML does not exist for b={form.beta.a}: exponent {form.cell(row).min()} < 0 at "
                f"counts={tuple(int(c) for c in row)} makes the tilted supremum unbounded"
            )
    return _separable_rows(form, cs) / form.alpha


_CACHE_FLOATS = 1 << 22  # the most floats (32 MiB) the cache charges for its entries
_ENTRY_FLOATS = 64  # the fixed charge of one entry, about the 490 bytes of its key, slot and value object


class _ClassTable(NamedTuple):
    """Every class of (n, m) and its log multiplicities, both read-only: a ``DEFAULT_CACHE`` entry."""

    counts: np.ndarray  # count_vectors(n, m)
    log_mult: np.ndarray  # log_multiplicities(counts)


def _charge(value) -> int:
    """Floats charged for an entry: its arrays' entries plus ``_ENTRY_FLOATS``.

    A normalizer is charged 1, a class table its counts and log
    multiplicities, and a lattice entry its table; the lattice entry's rank
    tables go uncharged, for m <= 10 they hold at most 30% of its charge.
    """
    if isinstance(value, _ClassTable):
        return value.counts.size + value.log_mult.size + _ENTRY_FLOATS
    return np.size(value[0] if isinstance(value, tuple) else value) + _ENTRY_FLOATS


class NormalizerCache:
    """Thread-safe least-recently-used memo for normalizers, class tables and lattice tables.

    A key is (builder, spec, n, m) for a normalizer or a lattice table and
    (``_class_table``, n, m) for a class table, so the values of two builders
    never collide. A value is a normalizer, a ``_ClassTable``, or a lattice
    table with its rank tables. Each is charged ``_charge(value)``, and the
    charges stay within ``_CACHE_FLOATS``: a store drops the least recently
    used entries first, and a value charged more than the bound is returned
    but not stored. Values are computed outside the lock and are
    deterministic functions of the key, so when two threads miss one key,
    the second store replaces the first.
    """

    def __init__(self):
        self._values: OrderedDict[tuple, float | tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._lock = threading.Lock()
        self.floats = 0

    def get_or_compute(self, key: tuple, compute: Callable[[], float | tuple]) -> float | tuple:
        with self._lock:
            value = self._values.get(key)  # no value is None
            if value is not None:
                self._values.move_to_end(key)
                return value
        value = compute()
        charge = _charge(value)
        if charge > _CACHE_FLOATS:
            return value
        with self._lock:
            if key in self._values:
                self.floats -= _charge(self._values.pop(key))
            self._values[key] = value
            self.floats += charge
            while self.floats > _CACHE_FLOATS:
                self.floats -= _charge(self._values.popitem(last=False)[1])
        return value

    def clear(self) -> None:
        with self._lock:
            self._values.clear()
            self.floats = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)


DEFAULT_CACHE = NormalizerCache()
_DEFAULT = object()  # log_normalizer's default: DEFAULT_CACHE, looked up when it is called


def _class_table(n: int, m: int) -> _ClassTable:
    """``count_vectors(n, m)`` and their log multiplicities, from ``DEFAULT_CACHE``.

    They depend only on (n, m), not on a predictor, so every scan of a
    horizon reads one pair. (n, m) are checked before the lookup, so 5.0
    and 5 share an entry.
    """
    n, m = _validate_nm(n, m)

    def build() -> _ClassTable:
        counts = count_vectors(n, m)
        log_mult = log_multiplicities(counts)
        counts.flags.writeable = log_mult.flags.writeable = False  # every scan shares them
        return _ClassTable(counts, log_mult)

    return DEFAULT_CACHE.get_or_compute((_class_table, n, m), build)


def _compute_log_normalizer(
    spec: PredictorSpec,
    n: int,
    m: int,
    counts: np.ndarray | None = None,
    numerators: np.ndarray | None = None,
    log_mult: np.ndarray | None = None,
) -> float:
    """ln sum over the classes of (n, m) of multiplicity * exp(log numerator).

    A scan that already holds every class (``count_vectors(n, m)``, in any
    order) passes it, with its numerators and multiplicities where it has
    them; the log-sum-exp does not depend on the order of its terms. With
    no counts, the classes come from ``_class_table``.
    """
    if counts is None:
        counts, log_mult = _class_table(n, m)
    if numerators is None:
        numerators = log_numerators(spec, counts)
    if log_mult is None:
        log_mult = log_multiplicities(counts)
    return log_sum_exp(log_mult + numerators)


def _cached_log_normalizer(spec: PredictorSpec, n: int, m: int, *arrays: np.ndarray | None) -> float:
    """The (spec, n, m) normalizer from ``DEFAULT_CACHE``; a miss reduces ``arrays`` as ``_compute_log_normalizer`` does."""
    key = (_compute_log_normalizer, spec, n, m)
    return DEFAULT_CACHE.get_or_compute(key, lambda: _compute_log_normalizer(spec, n, m, *arrays))


def log_normalizer(
    spec: PredictorSpec,
    n: int,
    m: int,
    *,
    cache: NormalizerCache | None = _DEFAULT,
    threads: int = 1,
) -> float:
    """ln sum over type classes of multiplicity * exp(log numerator).

    For a mixture (or alpha = 1) this is ~0 by normalization; for NML it is
    the log Shtarkov sum, the minimax worst-case regret.

    ``cache`` (default ``DEFAULT_CACHE`` as bound at the call; None
    enumerates the classes and neither reads nor writes any cache entry)
    and ``threads`` (accepted and ignored) are the last such keywords,
    because the benchmark's scaling probe (``perfbench/workloads.py``)
    passes ``cache=None, threads=t``. Both go once a benchmark-only change
    removes that probe; every other function memoizes in ``DEFAULT_CACHE``,
    which also holds the class table a cached normalizer is reduced over.
    """
    _checked_form(spec, m)
    if cache is None:
        return _compute_log_normalizer(spec, n, m, count_vectors(n, m))
    if cache is _DEFAULT:
        cache = DEFAULT_CACHE
    key = (_compute_log_normalizer, spec, n, m)
    return cache.get_or_compute(key, lambda: _compute_log_normalizer(spec, n, m))


def log_joints(
    spec: PredictorSpec,
    counts,
    *,
    complete: bool = False,
    log_mult: np.ndarray | None = None,
) -> np.ndarray:
    """ln of the predictor's probability of one sequence of each row's class.

    Every row of the (K, m) count array must have the same total n.
    ``complete=True`` says the rows are every class of (n, m), each once, as
    ``count_vectors`` returns them; a normalizer-cache miss then reduces
    their numerators, and ``log_mult`` (their log multiplicities) when
    given, instead of enumerating the classes again. The counts and the
    alphabet are checked once, by ``log_numerators``.
    """
    numerators = log_numerators(spec, counts)
    counts = np.asarray(counts, dtype=np.int64)
    m = counts.shape[1]
    form = _separable(spec)
    totals = np.einsum("ij->i", counts)  # row totals; einsum is 3x faster than sum(axis=1) here
    if form.f is gammaln and form.alpha == 1.0 and form.beta is not None:
        # exact identity: a Dirichlet mixture B(c + a) / B(a), i.e. the mixture or alpha = 1, is normalized;
        # at the empty sequence it is 1, where ln B(a) - ln B(a) of the cells would round a few ulps off 0
        numerators[totals == 0] = 0.0
        return numerators
    if not totals.size or totals.min() != totals.max():
        raise ValueError(f"count vectors of several horizons {np.unique(totals).tolist()} in one call")
    scan = (counts, numerators, log_mult) if complete else ()
    return numerators - _cached_log_normalizer(spec, int(totals[0]), m, *scan)


def log_joint(spec: PredictorSpec, counts: CountVector) -> LogProb:
    """ln of the predictor's probability of one sequence with these counts."""
    return float(log_joints(spec, [counts.counts])[0])


def _extension_log_weights(form: _Separable, past: CountVector) -> np.ndarray:
    """Log weight of extending ``past`` by each symbol at horizon past.n + 1, for a Beta-ratio joint.

    One more symbol k multiplies B(v) by Gamma(v_k + alpha) / Gamma(v_k)
    times a factor common to all symbols, which is dropped; only ratios
    matter.
    """
    alpha = form.alpha
    bases = form.cell(np.array(past.counts, dtype=np.float64)).tolist()
    if float(alpha).is_integer() and alpha <= _INTEGER_PRODUCT_CAP:
        # Gamma(base + alpha) / Gamma(base) unrolled as an explicit product
        return np.array([math.fsum(math.log(base + j) for j in range(int(alpha))) / alpha for base in bases])
    return np.array([(log_gamma(base + alpha) - log_gamma(base)) / alpha for base in bases])


def _log_marginal_numerators(spec: PredictorSpec, past: CountVector, horizon: int) -> np.ndarray:
    """ln of the horizon-``horizon`` joint after each next symbol, marginalized over all suffixes.

    The common normalizer is omitted; ratios at a fixed horizon are exact.
    """
    tails, log_mult = _class_table(horizon - past.n - 1, past.m)
    heads = np.asarray(past.counts, dtype=np.int64) + np.eye(past.m, dtype=np.int64)
    return np.array([log_sum_exp(log_mult + log_numerators(spec, tails + head)) for head in heads])


def conditional_distribution(spec: PredictorSpec, past_counts: CountVector, horizon: int | None = None) -> np.ndarray:
    """Next-symbol probabilities given past counts.

    The alpha family and NML are horizon-dependent, so the conditional is
    defined relative to a horizon; the default (past length + 1) is the
    one-step extension, where joints at the extended length are compared
    directly. A longer horizon marginalizes the horizon-length joint over
    all suffixes. On the one-step route of a Beta-ratio joint, integer
    alpha up to 4096 takes an explicit product and any other alpha the
    Gamma ratio.
    """
    n0 = past_counts.n
    form = _checked_form(spec, past_counts.m)
    if horizon is None:
        horizon = n0 + 1
    if horizon < n0 + 1:
        raise ValueError(f"horizon must be at least past length + 1 = {n0 + 1}, got {horizon}")
    if horizon == n0 + 1 and form.f is gammaln:
        weights = _extension_log_weights(form, past_counts)
    else:
        # ratio-of-joints kinds and longer horizons: the horizon normalizer is common and cancels
        weights = _log_marginal_numerators(spec, past_counts, horizon)
    shifted = weights - np.max(weights)
    probs = np.exp(shifted)
    return probs / probs.sum()


def _lattice_table(spec: PredictorSpec, horizon: int, m: int) -> np.ndarray:
    """ln of the horizon joint summed over all suffixes, at every prefix count of (horizon, m), as one flat array.

    One backward pass M_L(c) = logaddexp_k M_{L+1}(c + e_k) from the
    numerators at level ``horizon``; the common normalizer is omitted. The
    levels are stored as the pass makes them, level ``horizon`` first, so the
    table is in ``count_vectors(horizon, m + 1)`` order with the prepended
    coordinate horizon - L, and has C(horizon + m, m) entries: the prefix c
    at level L sits at the rank of (horizon - L, c) (``_prefix_ranks``). In
    ascending lex order the level-(L+1) rows with c_k >= 1 are the level-L
    rows plus e_k, in the same order. Every level is a slice of the horizon's
    arrays: level L is ``count_vectors(horizon, m)[start:]`` with c_0 lowered
    by horizon - L, so its rows with c_0 >= 1 are the tail after the first
    C(L+m-2, m-2), and its c_k >= 1 masks for k >= 1 are slices of one mask
    built at the horizon. Each level's ``logaddexp`` calls write into its
    slice of the table.
    """
    counts = count_vectors(horizon, m)
    has = np.ascontiguousarray(counts.T[1:] >= 1)  # c_k >= 1 for k >= 1; these columns never change
    table = np.empty(math.comb(horizon + m, m))
    marginals = table[: counts.shape[0]]
    marginals[:] = log_numerators(spec, counts)
    start, end = 0, counts.shape[0]
    for level in range(horizon, 0, -1):
        first = math.comb(level + m - 2, m - 2)  # level-L rows with c_0 = 0
        out = table[end : end + marginals.size - first]
        lower = marginals[first:]
        for k in range(m - 1):
            lower = np.logaddexp(lower, marginals[has[k, start:]], out=out)
        start += first
        end += out.size
        marginals = out
    return table


def _prefix_log_marginals(spec: PredictorSpec, path: np.ndarray, horizon: int) -> np.ndarray:
    """The lattice table of (spec, horizon, m) at each row of a (T+1, m) prefix-count path.

    A ``DEFAULT_CACHE`` hit is one lookup: the entry holds the table and the
    composition tables N_1..N_{m+1} on r = 0..horizon its ranks are read with.
    """
    m = path.shape[1]
    key = (_lattice_table, spec, horizon, m)
    build = lambda: (_lattice_table(spec, horizon, m), _composition_tables(horizon, m + 1))  # noqa: E731
    table, compositions = DEFAULT_CACHE.get_or_compute(key, build)
    return table[_prefix_ranks(compositions, path, horizon)]


def _prefix_ranks(compositions: np.ndarray, path: np.ndarray, horizon: int) -> np.ndarray:
    """The rank of (horizon - t, c_t) in ``count_vectors(horizon, m + 1)`` for each row c_t (of total t) of the path."""
    left = np.empty((path.shape[0], path.shape[1] + 1), dtype=np.int64)  # R_0 = horizon, then c_t's suffix sums
    left[:, 0] = horizon
    path[:, ::-1].cumsum(axis=1, out=left[:, :0:-1])
    return _lex_ranks(compositions, left)


def cumulative_log_loss(
    spec: PredictorSpec,
    sequence: Sequence[int],
    m: int | None = None,
    *,
    horizon: int | None = None,
) -> float:
    """Sum over the sequence of -ln p(next symbol | past), in nats.

    Horizon-dependent predictors are evaluated at ``horizon`` (default: the
    sequence length). The lattice table of (spec, horizon, m) gives M(c_t),
    the log horizon joint summed over all suffixes of each prefix, and step t costs
    M(c_{t-1}) - M(c_t); at the full length the chain telescopes back to
    -log_joint.
    """
    if m is None:
        m = spec_alphabet_size(spec)
        if m is None:
            raise ValueError("alphabet size m is required for this predictor kind")
    _checked_form(spec, m)
    seq = _whole_symbols(sequence, m)
    if horizon is None:
        horizon = len(seq)
    if horizon < len(seq):
        raise ValueError(f"horizon {horizon} shorter than the sequence length {len(seq)}")
    path = np.zeros((len(seq) + 1, m), dtype=np.int64)  # the per-symbol counts of each prefix
    path[np.arange(1, len(seq) + 1), seq - 1] = 1  # row t + 1 adds symbol seq[t]
    path.cumsum(axis=0, out=path)
    marginals = _prefix_log_marginals(spec, path, horizon)
    return math.fsum((marginals[:-1] - marginals[1:]).tolist())
