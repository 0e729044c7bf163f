"""Brute-force oracles for desk-scale validation.

These routes deliberately avoid the type-class machinery: sums run over all
m^n explicit sequences via itertools, maxima over dense parameter grids, and
Theorem 5's tilted alpha-regret, which the library sums exactly over the type
classes, by scipy's ``quad`` over theta at m = 2. They share only scalar
numerics primitives and the predictors' joints with the production code, so
an agreement between the two is evidence that the grouped fast paths are
right.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import NumericError, UnsupportedError
from .numerics import LogProb, log_sum_exp
from .predictors import DirichletParams, PredictorSpec, log_joints, tilted_params
from .typeclass import _MAX_THETA_CELLS, _check_budget

_ENUMERATION_GUARD = 1 << 18  # sequences; at some 30 us each, an admitted sum ends within seconds
_STREAM_CHUNK = 1 << 15


@dataclass(frozen=True)
class OracleConfig:
    """Grid size for brute-force simplex maximization."""

    grid_points: int = 1_000_000

    def __post_init__(self):
        points = self.grid_points
        if isinstance(points, bool) or not isinstance(points, numbers.Integral) or points < 1:
            raise ValueError(f"grid_points must be an integer >= 1, got {points!r}")


def _check_enumeration(n: int, m: int) -> tuple[int, int]:
    """(n, m) as ints; ValueError for a malformed pair, UnsupportedError when m^n exceeds the guard.

    An n beyond the guard's bit length exceeds it at every m >= 2, so m^n is not built for it. nan and
    +-inf fail before ``int``, which raises on them.
    """
    if not all(x == x and abs(x) != math.inf and int(x) == x for x in (n, m)) or n < 0 or m < 2:
        raise ValueError(f"need integer n >= 0 and m >= 2, got n={n}, m={m}")
    n, m = int(n), int(m)
    if n > _ENUMERATION_GUARD.bit_length() or m**n > _ENUMERATION_GUARD:
        raise UnsupportedError(
            f"m^n = {m}^{n} sequences exceed the brute-force enumeration guard of {_ENUMERATION_GUARD}"
        )
    return n, m


def brute_sequence_sum(
    n: int,
    m: int,
    per_sequence_term: Callable[[tuple[int, ...]], LogProb],
) -> float:
    """ln sum over all m^n sequences of exp(per_sequence_term(sequence)).

    Sequences are tuples of symbols in 1..m, streamed in lexicographic order
    and reduced in fixed-size chunks to bound memory. More than 2^18
    sequences raise UnsupportedError before any is visited.
    """
    n, m = _check_enumeration(n, m)
    partials: list[float] = []
    block: list[float] = []
    for seq in itertools.product(range(1, m + 1), repeat=n):
        block.append(per_sequence_term(seq))
        if len(block) == _STREAM_CHUNK:
            partials.append(log_sum_exp(block))
            block = []
    if block:
        partials.append(log_sum_exp(block))
    return log_sum_exp(partials)


def brute_simplex_max(
    objective: Callable[[np.ndarray], np.ndarray],
    m: int = 2,
    config: OracleConfig | None = None,
) -> tuple[float, float]:
    """(theta, value) maximizing a vectorized objective over the 1-simplex.

    Only m = 2 is supported: theta parametrizes (theta, 1 - theta) on a dense
    uniform grid of config.grid_points + 1 points including both endpoints.
    Ties resolve to the smallest theta.
    """
    if m != 2:
        raise UnsupportedError(f"brute_simplex_max supports m=2 only, got m={m}")
    cfg = config or OracleConfig()
    edges = np.linspace(0.0, 1.0, cfg.grid_points + 1)
    best_val = -math.inf
    best_theta = 0.0
    for start in range(0, edges.size, _STREAM_CHUNK):
        chunk = edges[start : start + _STREAM_CHUNK]
        vals = np.asarray(objective(chunk), dtype=np.float64)
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best_theta = float(chunk[idx])
    return best_theta, best_val


def quadrature_tilted_alpha_regret(
    predictor: PredictorSpec, b: DirichletParams, n: int, alpha: float, m: int = 2
) -> float:
    """Theorem 5's left side, ``luckiness_alpha_regret``, by quadrature over theta = (t, 1 - t): m = 2 only.

    (1/(alpha-1)) ln of the integral over t of the tilted prior's density (parameters
    alpha*(b_i-1)+1) times sum_c mult(c) p_theta(c)^alpha q(c)^(1-alpha), q the predictor's
    ``log_joints``; every other term comes from ``math.lgamma`` and ``math.log``. scipy's ``quad``
    (imported on use) integrates [0, 1e-3], [1e-3, 1 - 1e-3] and [1 - 1e-3, 1], each with absolute
    tolerance 1e-11, relative tolerance 1e-12 and at most 200 subintervals, so at most 3 * 8,379
    nodes, which the theta budget counts before any is evaluated. The error estimates must sum to
    at most 1e-7 of the value; a node beyond the float range, or a failed quadrature, raises
    NumericError.
    """
    if m != 2 or b.m != 2:
        raise UnsupportedError(f"the theorem5 quadrature supports m = 2 only, got m={m}")
    if not alpha > 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    nodes = 3 * (42 * 200 - 21)  # quad's evaluations of 200 subintervals, on each of the 3 pieces
    _check_budget(f"a theta route of {nodes} points at (n, m) = ({n}, 2)", nodes * (n + 1), "cells", _MAX_THETA_CELLS)
    t0, t1 = tilted_params(alpha, b).a
    log_beta = math.lgamma(t0) + math.lgamma(t1) - math.lgamma(t0 + t1)
    first = np.arange(n + 1)
    second = n - first
    log_mult = np.array([math.lgamma(n + 1.0) - math.lgamma(c + 1.0) - math.lgamma(n - c + 1.0) for c in range(n + 1)])
    offsets = log_mult + (1.0 - alpha) * log_joints(predictor, np.stack([first, second], axis=1))

    def integrand(t: float) -> float:
        log_t, log_u = math.log(t), math.log1p(-t)
        log_value = (t0 - 1.0) * log_t + (t1 - 1.0) * log_u - log_beta
        log_value += log_sum_exp(offsets + alpha * (first * log_t + second * log_u))
        try:
            return math.exp(log_value)
        except OverflowError:
            raise NumericError(
                f"the tilted alpha-regret's integrand exceeds the float range: its log is {log_value:.6g} "
                f"at theta_1 = {t:.6g}"
            ) from None

    from scipy import integrate

    total = err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)  # the error estimate is checked below
        for lo, hi in ((0.0, 1e-3), (1e-3, 1.0 - 1e-3), (1.0 - 1e-3, 1.0)):
            value, estimate = integrate.quad(integrand, lo, hi, epsabs=1e-11, epsrel=1e-12, limit=200)
            total += value
            err += estimate
    if not (math.isfinite(total) and total > 0.0 and err <= 1e-7 * total):
        raise NumericError(
            f"quadrature for the tilted alpha-regret failed (value={total:.3e}, err={err:.3e})", partial=total
        )
    return math.log(total) / (alpha - 1.0)


def sequence_counts(sequence: Sequence[int], m: int) -> tuple[int, ...]:
    """Occupancy counts of an explicit sequence (direct counting, no grouping)."""
    counts = [0] * m
    for x in sequence:
        if not 1 <= x <= m:
            raise ValueError(f"symbol {x} outside alphabet {{1, ..., {m}}}")
        counts[x - 1] += 1
    return tuple(counts)


def sequential_mixture_log_prob(sequence: Sequence[int], m: int, a: Sequence[float]) -> float:
    """ln p(sequence) under a Dirichlet(a) mixture via the predictive chain.

    Multiplies (c_k + a_k) / (i + sum a) step by step; an independent route
    to the same value as the Beta-function closed form.
    """
    counts = [0] * m
    total_a = math.fsum(a)
    log_p = 0.0
    for i, x in enumerate(sequence):
        log_p += math.log((counts[x - 1] + a[x - 1]) / (i + total_a))
        counts[x - 1] += 1
    return log_p
