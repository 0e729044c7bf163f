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
one normalizer cache, ``DEFAULT_CACHE``, a thread-safe memo keyed by
(spec, n, m): every joint, regret and information radius memoizes its
normalizers there, and ``DEFAULT_CACHE.clear()`` empties it. Only
``log_normalizer`` takes ``cache=`` (another ``NormalizerCache``, or None
for no memo), because the benchmark's scaling probe times it with
``cache=None``. A scan that already holds every class
(``log_joints(..., complete=True)``) hands its classes and numerators to the
normalizer on a cache miss instead of enumerating again.
``cumulative_log_loss`` codes a whole sequence in one backward pass over the
lattice of prefix counts: every level is a slice of the horizon's class and
mask arrays, and each prefix is read at its lex rank
(``typeclass.count_vector_ranks``). ``conditional_distribution`` answers a
next-symbol query of a Beta-ratio kind one step ahead in closed form, and
any other query by enumerating the suffix classes after each symbol.
"""

from __future__ import annotations

import math
import threading
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
    _whole_symbols,
    count_vector_ranks,
    count_vectors,
    log_multiplicities,
    reduce_over_type_classes,
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
        values = np.broadcast_to(cell(counts.astype(np.float64)), (rows, m))
        terms = f(values)
    out = np.sum(terms, axis=1) - f(np.sum(values, axis=1))
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


class NormalizerCache:
    """Thread-safe memo for log normalizers, keyed by (spec, n, m).

    Values are deterministic functions of the key, so concurrent writers are
    idempotent (last write wins with an identical value).
    """

    def __init__(self):
        self._values: dict[tuple[PredictorSpec, int, int], float] = {}
        self._lock = threading.Lock()

    def get_or_compute(self, spec: PredictorSpec, n: int, m: int, compute: Callable[[], float]) -> float:
        key = (spec, n, m)
        with self._lock:
            if key in self._values:
                return self._values[key]
        value = compute()
        with self._lock:
            self._values[key] = value
        return value

    def verify(self, spec: PredictorSpec, n: int, m: int, rel_tol: float = 1e-12) -> bool:
        """Recompute an entry class by class with the reference reduction and compare."""
        key = (spec, n, m)
        with self._lock:
            if key not in self._values:
                raise KeyError(f"no cached normalizer for {key}")
            cached = self._values[key]
        fresh = reduce_over_type_classes(n, m, lambda cv: float(log_numerators(spec, [cv.counts])[0]))
        return math.isclose(cached, fresh, rel_tol=rel_tol, abs_tol=1e-12)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)


DEFAULT_CACHE = NormalizerCache()


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
    them; the log-sum-exp does not depend on the order of its terms.
    """
    if counts is None:
        counts = count_vectors(n, m)
    if numerators is None:
        numerators = log_numerators(spec, counts)
    if log_mult is None:
        log_mult = log_multiplicities(counts)
    return log_sum_exp(log_mult + numerators)


def _cached_log_normalizer(spec: PredictorSpec, n: int, m: int, *arrays: np.ndarray | None) -> float:
    """The (spec, n, m) normalizer from ``DEFAULT_CACHE``; a miss reduces ``arrays`` as ``_compute_log_normalizer`` does."""
    return DEFAULT_CACHE.get_or_compute(spec, n, m, lambda: _compute_log_normalizer(spec, n, m, *arrays))


def log_normalizer(
    spec: PredictorSpec,
    n: int,
    m: int,
    *,
    cache: NormalizerCache | None = DEFAULT_CACHE,
    threads: int = 1,
) -> float:
    """ln sum over type classes of multiplicity * exp(log numerator).

    For a mixture (or alpha = 1) this is ~0 by normalization; for NML it is
    the log Shtarkov sum, the minimax worst-case regret.

    ``cache`` (default ``DEFAULT_CACHE``; None computes without a memo) and
    ``threads`` (accepted and ignored) are the last such keywords, because
    the benchmark's scaling probe (``perfbench/workloads.py``) passes
    ``cache=None, threads=t``. Both go once a benchmark-only change removes
    that probe; every other function memoizes in ``DEFAULT_CACHE``.
    """
    _checked_form(spec, m)
    compute = lambda: _compute_log_normalizer(spec, n, m)  # noqa: E731
    return compute() if cache is None else cache.get_or_compute(spec, n, m, compute)


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
    given, instead of enumerating the classes again.
    """
    counts = _as_counts(counts)
    m = counts.shape[1]
    form = _checked_form(spec, m)
    numerators = log_numerators(spec, counts)
    if form.f is gammaln and form.alpha == 1.0 and form.beta is not None:
        # exact identity: a Dirichlet mixture B(c + a) / B(a), i.e. the mixture or alpha = 1, is normalized
        return numerators
    totals = counts.sum(axis=1)
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
    tails = count_vectors(horizon - past.n - 1, past.m)
    log_mult = log_multiplicities(tails)
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


def _prefix_log_marginals(spec: PredictorSpec, path: np.ndarray, horizon: int) -> np.ndarray:
    """ln of the horizon joint summed over all suffixes, at each row of a (T+1, m) prefix-count path.

    One backward pass M_L(c) = logaddexp_k M_{L+1}(c + e_k) from the numerators
    at level ``horizon``; the common normalizer is omitted. In ascending lex
    order the level-(L+1) rows with c_k >= 1 are the level-L rows plus e_k, in
    the same order. Every level is a slice of the horizon's arrays: level L is
    ``count_vectors(horizon, m)[start:]`` with c_0 lowered by horizon - L, so
    its rows with c_0 >= 1 are the tail after the first C(L+m-2, m-2), and its
    c_k >= 1 masks for k >= 1 are slices of one mask built at the horizon.
    Each prefix is read at its lex rank (``count_vector_ranks``).
    """
    m = path.shape[1]
    counts = count_vectors(horizon, m)
    has = np.ascontiguousarray(counts.T[1:] >= 1)  # c_k >= 1 for k >= 1; these columns never change
    marginals = log_numerators(spec, counts)
    ranks = count_vector_ranks(path)
    out = np.empty(path.shape[0])
    start = 0
    for level in range(horizon, -1, -1):
        if level < path.shape[0]:
            out[level] = marginals[ranks[level]]
        if level:
            first = math.comb(level + m - 2, m - 2)  # level-L rows with c_0 = 0
            lower = marginals[first:]
            for k in range(m - 1):
                lower = np.logaddexp(lower, marginals[has[k, start:]])
            start += first
            marginals = lower
    return out


def cumulative_log_loss(
    spec: PredictorSpec,
    sequence: Sequence[int],
    m: int | None = None,
    *,
    horizon: int | None = None,
) -> float:
    """Sum over the sequence of -ln p(next symbol | past), in nats.

    Horizon-dependent predictors are evaluated at ``horizon`` (default: the
    sequence length). One backward pass gives M(c_t), the log horizon joint
    summed over all suffixes of each prefix, and step t costs
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
    steps = np.eye(m, dtype=np.int64)[seq - 1]
    path = np.vstack([np.zeros((1, m), dtype=np.int64), np.cumsum(steps, axis=0)])
    marginals = _prefix_log_marginals(spec, path, horizon)
    return math.fsum(marginals[:-1] - marginals[1:])
