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
computed in the natural-log domain. ``log_numerators`` is the one per-kind
dispatch: it evaluates the unnormalized log joint of every row of a (K, m)
count array at once. Every kind is a sum of per-symbol terms (``gammaln`` or
``xlogy`` of one value per count and symbol) minus a function of the row
total, so a scan evaluates the special function once per symbol on
k = 0..max count and gathers its cells from those tables. ``log_joints``
subtracts the horizon's log normalizer. ``log_normalizer`` reduces
multiplicities plus numerators over the array of all type classes and
memoizes in a thread-safe cache keyed by (spec, n, m); a scan that already
holds every class (``log_joints(..., complete=True)``) hands its classes and
numerators to the normalizer on a cache miss instead of enumerating again.
``cumulative_log_loss`` codes a whole sequence in one backward pass over the
lattice of prefix counts; ``conditional_distribution`` answers one
next-symbol query by enumerating the suffix classes after each symbol.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

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
from .typeclass import CountVector, count_vectors, log_multiplicities, reduce_over_type_classes

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

    label = "predictor"


@dataclass(frozen=True)
class Mixture(PredictorSpec):
    a: DirichletParams

    label = "mixture"


@dataclass(frozen=True)
class AlphaNML(PredictorSpec):
    alpha: float
    a: DirichletParams

    label = "anml"

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1.0):
            raise ValueError(f"alpha must be a finite real >= 1, got {self.alpha}")


@dataclass(frozen=True)
class NML(PredictorSpec):
    label = "nml"


@dataclass(frozen=True)
class LuckinessNML(PredictorSpec):
    b: DirichletParams

    label = "lnml"


@dataclass(frozen=True)
class LuckinessAlphaNML(PredictorSpec):
    alpha: float
    b: DirichletParams

    label = "lanml"

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
    if isinstance(spec, Mixture):
        return spec.a.m
    if isinstance(spec, AlphaNML):
        return spec.a.m
    if isinstance(spec, LuckinessNML):
        return spec.b.m
    if isinstance(spec, LuckinessAlphaNML):
        return spec.b.m
    return None


def _check_spec_m(spec: PredictorSpec, m: int) -> None:
    sm = spec_alphabet_size(spec)
    if sm is not None and sm != m:
        raise ValueError(f"spec is over an alphabet of size {sm}, got m={m}")


def log_ml(counts: CountVector) -> LogProb:
    """ln of the maximized likelihood: sum c_i ln(c_i / n), with 0 ln 0 = 0."""
    return float(log_numerators(NML(), [counts.counts])[0])


def log_dirichlet_alpha_integral(counts: CountVector, alpha: float, a: DirichletParams) -> LogProb:
    """ln integral of Dirichlet(a) * p_theta^alpha over the simplex.

    Closed form: ln B(alpha*counts + a) - ln B(a).
    """
    if counts.m != a.m:
        raise ValueError(f"counts have m={counts.m}, prior has m={a.m}")
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return float(_log_alpha_integrals(np.array([counts.counts]), alpha, a)[0])


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


def _separable_rows(cell: Callable[[np.ndarray], np.ndarray], f: Callable, counts: np.ndarray) -> np.ndarray:
    """sum_i f(v_i) - f(sum_i v_i) per row, with v_i = cell(c_i) for symbol i.

    ``cell`` maps float counts to one value per symbol. When K > max count
    + 1, ``cell`` and ``f`` run once per symbol on k = 0..max count and the
    (K, m) cells are gathered from those tables; smaller arrays (single rows,
    m = 2 scans where K = n + 1) evaluate every cell. Each cell holds the
    same float either way and rows are summed the same way, so both routes
    agree bit for bit. The row-total term stays per row: the float sum of
    the cells differs from row to row in its last bits.
    """
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
    return np.sum(terms, axis=1) - f(np.sum(values, axis=1))


def _log_alpha_integrals(counts: np.ndarray, alpha: float, a: DirichletParams) -> np.ndarray:
    """ln B(alpha*c + a) - ln B(a) for each row c of a count array."""
    return _separable_rows(lambda k: alpha * k + a.as_array(), gammaln, counts) - log_multivariate_beta(a.a)


def _xlogx(x: np.ndarray) -> np.ndarray:
    return xlogy(x, x)


def log_numerators(spec: PredictorSpec, counts) -> np.ndarray:
    """Unnormalized log joints of every row of a (K, m) count array.

    Each kind is a sum of per-symbol terms minus a function of the row's
    total (``_separable_rows``), so a scan reads the per-symbol terms from
    tables over k = 0..max count. Counts must be non-negative whole numbers
    (ValueError otherwise).
    Constants common to all count vectors of a horizon may be dropped, so
    only differences at a fixed n, and ``log_joints``, are meaningful.
    """
    cs = _as_counts(counts)
    if isinstance(spec, (Mixture, AlphaNML)):
        alpha = getattr(spec, "alpha", 1.0)
        return _log_alpha_integrals(cs, alpha, spec.a) / alpha
    if isinstance(spec, NML):
        return _separable_rows(lambda k: k, _xlogx, cs)
    if isinstance(spec, LuckinessNML):
        # an exponent e_i = c_i + b_i - 1 of the tilted supremum is negative iff c_i = 0 and b_i < 1
        b = spec.b.as_array()
        bad = np.flatnonzero(np.any((cs == 0) & (b < 1.0), axis=1))
        if bad.size:
            row = cs[bad[0]]
            raise InfeasibleModelError(
                f"luckiness NML does not exist for b={spec.b.a}: exponent {(row + b - 1.0).min()} < 0 at "
                f"counts={tuple(int(c) for c in row)} makes the tilted supremum unbounded"
            )
        return _separable_rows(lambda k: k + b - 1.0, _xlogx, cs) - log_multivariate_beta(spec.b.a)
    if isinstance(spec, LuckinessAlphaNML):
        params = tilted_params(spec.alpha, spec.b).as_array()
        return _separable_rows(lambda k: spec.alpha * k + params, gammaln, cs) / spec.alpha
    raise TypeError(f"unknown predictor spec {spec!r}")


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


def _cached_log_normalizer(
    spec: PredictorSpec, n: int, m: int, cache: NormalizerCache | None, *arrays: np.ndarray | None
) -> float:
    compute = lambda: _compute_log_normalizer(spec, n, m, *arrays)  # noqa: E731
    return compute() if cache is None else cache.get_or_compute(spec, n, m, compute)


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

    ``threads`` is accepted and ignored; it is the one such keyword left,
    because the benchmark's scaling probe (``perfbench/workloads.py``)
    passes it. It goes once a benchmark-only change removes that probe.
    """
    _check_spec_m(spec, m)
    return _cached_log_normalizer(spec, n, m, cache)


def log_joints(
    spec: PredictorSpec,
    counts,
    *,
    cache: NormalizerCache | None = DEFAULT_CACHE,
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
    _check_spec_m(spec, m)
    numerators = log_numerators(spec, counts)
    if isinstance(spec, Mixture) or (isinstance(spec, AlphaNML) and spec.alpha == 1.0):
        # exact identity: the mixture, and the alpha family at alpha = 1, are normalized
        return numerators
    totals = counts.sum(axis=1)
    if not totals.size or totals.min() != totals.max():
        raise ValueError(f"count vectors of several horizons {np.unique(totals).tolist()} in one call")
    scan = (counts, numerators, log_mult) if complete else ()
    return numerators - _cached_log_normalizer(spec, int(totals[0]), m, cache, *scan)


def log_joint(spec: PredictorSpec, counts: CountVector, *, cache: NormalizerCache | None = DEFAULT_CACHE) -> LogProb:
    """ln of the predictor's probability of one sequence with these counts."""
    return float(log_joints(spec, [counts.counts], cache=cache)[0])


def _product_form(spec: PredictorSpec) -> tuple[float, DirichletParams] | None:
    """(alpha, effective Dirichlet params) for kinds whose joint is a Beta ratio."""
    if isinstance(spec, Mixture):
        return 1.0, spec.a
    if isinstance(spec, AlphaNML):
        return spec.alpha, spec.a
    if isinstance(spec, LuckinessAlphaNML):
        return spec.alpha, tilted_params(spec.alpha, spec.b)
    return None


def _extension_log_weight(
    alpha: float, params: DirichletParams, past: CountVector, symbol: int, use_integer_fast_path: bool | None
) -> float:
    """Log weight of extending ``past`` by ``symbol`` at horizon past.n + 1, for a Beta-ratio joint.

    Terms common to all symbols are dropped; only ratios matter.
    """
    c_k = float(past.counts[symbol - 1])
    a_k = float(params.a[symbol - 1])
    base = alpha * c_k + a_k
    is_int = float(alpha).is_integer() and alpha <= _INTEGER_PRODUCT_CAP
    if use_integer_fast_path is True and not is_int:
        raise ValueError(f"integer fast path requested for non-integer alpha={alpha}")
    use_product = is_int if use_integer_fast_path is None else use_integer_fast_path
    if use_product:
        # Gamma(base + alpha) / Gamma(base) unrolled as an explicit product
        return math.fsum(math.log(base + j) for j in range(int(alpha))) / alpha
    return (log_gamma(base + alpha) - log_gamma(base)) / alpha


def _log_marginal_numerators(spec: PredictorSpec, past: CountVector, horizon: int) -> np.ndarray:
    """ln of the horizon-``horizon`` joint after each next symbol, marginalized over all suffixes.

    The common normalizer is omitted; ratios at a fixed horizon are exact.
    """
    tails = count_vectors(horizon - past.n - 1, past.m)
    log_mult = log_multiplicities(tails)
    heads = np.asarray(past.counts, dtype=np.int64) + np.eye(past.m, dtype=np.int64)
    return np.array([log_sum_exp(log_mult + log_numerators(spec, tails + head)) for head in heads])


def conditional_distribution(
    spec: PredictorSpec,
    past_counts: CountVector,
    horizon: int | None = None,
    *,
    use_integer_fast_path: bool | None = None,
) -> np.ndarray:
    """Next-symbol probabilities given past counts.

    The alpha family and NML are horizon-dependent, so the conditional is
    defined relative to a horizon; the default (past length + 1) is the
    one-step extension, where joints at the extended length are compared
    directly. A longer horizon marginalizes the horizon-length joint over
    all suffixes. Integer alpha takes an explicit product; otherwise the
    Gamma-ratio path is used; ``use_integer_fast_path`` forces one route.
    """
    n0 = past_counts.n
    m = past_counts.m
    _check_spec_m(spec, m)
    if horizon is None:
        horizon = n0 + 1
    if horizon < n0 + 1:
        raise ValueError(f"horizon must be at least past length + 1 = {n0 + 1}, got {horizon}")
    form = _product_form(spec)
    if horizon == n0 + 1 and form is not None:
        weights = np.array(
            [_extension_log_weight(*form, past_counts, k, use_integer_fast_path) for k in range(1, m + 1)]
        )
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
    the same order, so a level costs one mask per symbol and two levels are held.
    """
    counts = count_vectors(horizon, path.shape[1])
    marginals = log_numerators(spec, counts)
    out = np.empty(path.shape[0])
    for level in range(horizon, -1, -1):
        if level < path.shape[0]:
            out[level] = marginals[np.flatnonzero((counts == path[level]).all(axis=1))[0]]
        if level:
            has = counts >= 1
            lower = marginals[has[:, 0]]
            for k in range(1, counts.shape[1]):
                lower = np.logaddexp(lower, marginals[has[:, k]])
            counts = counts[has[:, 0]]
            counts[:, 0] -= 1
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
    seq = [int(x) for x in sequence]
    if m is None:
        m = spec_alphabet_size(spec)
        if m is None:
            raise ValueError("alphabet size m is required for this predictor kind")
    _check_spec_m(spec, m)
    for x in seq:
        if not 1 <= x <= m:
            raise ValueError(f"symbol {x} outside alphabet 1..{m}")
    if horizon is None:
        horizon = len(seq)
    if horizon < len(seq):
        raise ValueError(f"horizon {horizon} shorter than the sequence length {len(seq)}")
    steps = np.eye(m, dtype=np.int64)[np.array(seq, dtype=np.int64) - 1]
    path = np.vstack([np.zeros((1, m), dtype=np.int64), np.cumsum(steps, axis=0)])
    marginals = _prefix_log_marginals(spec, path, horizon)
    return math.fsum(marginals[:-1] - marginals[1:])
