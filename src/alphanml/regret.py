"""Regret analysis for exchangeable predictors over memoryless sources.

Three regret notions share one engine:

* worst-case regret: max over sequences of ln(maximized likelihood / p-hat),
  computed on the array of all type classes;
* average regret: sup over source parameters theta of KL(p_theta || p-hat)
  on sequence space;
* alpha-regret: sup over theta of the Renyi divergence of order alpha,
  which recovers the average regret as alpha -> 1 and the worst case as
  alpha -> infinity.

Orders and Dirichlet alphabets are checked by ``predictors._check_order``
and ``_check_alphabet``; a report carries the checked ints n and m. Only
this module evaluates over theta: every supremum (average, alpha and the
luckiness supremum form) on ``_theta_sup``, which checks its order,
alphabet and theta budget before it builds a class table, and every
Dirichlet average (of KL, or of the tilted sum_x p_theta^alpha
q^(1-alpha)) on ``_dirichlet_average``. An average needs no quadrature:
E over Dirichlet(b) of theta^c is B(c + b) / B(b), so it swaps with the
sum over type classes and is an exact class sum at any m, under the class
budget. The weight of the luckiness supremum form is
``DirichletParams.log_pdf``.

The information radius I_alpha (a Sibson mutual information between the
source parameter and the sequence) is the matching lower bound and shows up
in the identity checks: the worst-case regret of any predictor equals
I_infinity plus its order-infinity divergence from NML, and for the alpha
family it splits into ((alpha-1)/alpha) I_alpha plus a closed-form remainder
with a Gamma-ratio expression under the Jeffreys prior.

Maximization over theta uses a dense grid plus golden-section refinement on
the 1-simplex, and a triangular lattice plus Nelder-Mead refinement on the
2-simplex; ``_maximize`` alone chooses the lattice. A ``TypeClassTable``
evaluates the objective: the grid GRID_CHUNK points at a time (fewer when
K is large) into two scratch arrays reused from chunk to chunk, the
lattice's rows gathered from per-coordinate product tables at the counts
its rows are, and each refinement probe, boundary points included, on
(K,) rows. Every route gives the batch route's values bit for bit.
Nelder-Mead runs on the plain-Python port in ``_ports``, which gives
scipy's bits without importing scipy. Argmax ties
break to the lexicographically smallest point: ``lex_argmax`` takes the
first candidate within a relative ``TIE_REL`` of the maximum, and a
refinement replaces it only when it is better by more than that window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import NumericError, UnsupportedError
from .numerics import LOG_PI, LOG_TWO, log_gamma, log_sum_exp, xlogy
from .predictors import (
    AlphaNML,
    DirichletParams,
    Mixture,
    NML,
    PredictorSpec,
    _class_joints,
    _class_table,
    _ClassTable,
    _add_columns,
    _check_alphabet,
    _check_order,
    _separable,
    _separable_rows,
    log_normalizer,
    log_numerators,
)
from .typeclass import _MAX_THETA_CELLS, CountVector, _check_budget, _validate_nm, count_vector_total

JointFn = Callable[[CountVector], float]

GRID_POINTS = 4096  # m = 2 grid resolution before golden-section refinement
LATTICE_STEP = 256  # m = 3 triangular-lattice resolution (step 1/256)
REFINE_ITERS = 200  # m = 3 Nelder-Mead refinement iterations
GOLDEN_TOL = 1e-10  # m = 2 refinement width in theta
TIE_REL = 1e-12  # relative window treating argmax candidates as tied
GRID_CHUNK = 512  # grid and lattice rows per chunk of _grid_values; keeps the (rows, classes) scratch in cache
# floats in each of _grid_values' two scratch arrays, at most: chunks of fewer rows when K > 256, so
# perfbench's K <= 201 keeps whole chunks and a large K stays at 1 MiB per array
_SCRATCH_FLOATS = 1 << 17


def lex_argmax(values: np.ndarray) -> int:
    """Index of the first entry within a relative TIE_REL of the maximum.

    Flat profiles (equal up to a few ulp) thus keep the first, i.e. the
    lexicographically smallest, argument instead of whichever one rounding
    happens to favor. A +inf maximum picks the first +inf entry; a nan
    entry is a numeric failure.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        raise NumericError("nan among the values to maximize")
    best = float(values.max())
    if math.isinf(best):
        return int(np.argmax(values == best))
    return int(np.argmax(values >= best - TIE_REL * max(1.0, abs(best))))


@dataclass(frozen=True)
class SimplexPoint:
    """A point of the probability simplex; coordinates sum to 1 within 1e-12."""

    theta: tuple[float, ...]

    def __post_init__(self):
        if len(self.theta) < 2:
            raise ValueError("simplex points need dimension >= 2")
        if not all(0.0 <= t <= 1.0 for t in self.theta):  # nan fails too
            raise ValueError(f"coordinates outside [0, 1]: {self.theta}")
        if abs(math.fsum(self.theta) - 1.0) > 1e-12:
            raise ValueError(f"coordinates must sum to 1, got {self.theta}")

    @property
    def m(self) -> int:
        return len(self.theta)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.theta, dtype=np.float64)


@dataclass(frozen=True)
class RegretReport:
    """Result of one regret computation, in nats (bits derived on demand)."""

    kind: str
    value_nats: float
    n: int
    m: int
    predictor: object
    alpha: float | None = None
    maximizer: object | None = None

    @property
    def value_bits(self) -> float:
        return self.value_nats / LOG_TWO


class WAlphaResult(NamedTuple):
    value: float
    maximizer: CountVector


def joint_values(predictor: PredictorSpec | JointFn, table: _ClassTable) -> np.ndarray:
    """ln joint of every class of a class table, for a spec or any counts -> log-prob callable.

    ``table`` is the ``_class_table(n, m)`` the caller holds. A spec's joints
    come from ``_class_joints``, whose normalizer-cache miss reduces over
    that table; a callable is called once per class.
    """
    if isinstance(predictor, PredictorSpec):
        return _class_joints(predictor, table)[1]
    if callable(predictor):
        return np.array([predictor(CountVector(tuple(row))) for row in table.counts.tolist()], dtype=np.float64)
    raise TypeError(f"predictor must be a PredictorSpec or callable, got {predictor!r}")


class TypeClassTable:
    """Per-type-class arrays for one (n, m, predictor) triple, and D_alpha(p_theta || predictor) over them.

    Holds each symbol's counts as a float column, log multiplicities and
    predictor log joints. The Renyi divergence on sequence space (KL at
    alpha = 1) has three routes, which give the same values bit for bit: the
    batch route (``_log_ptheta_batch``) for the m = 2 grid; rows gathered
    from per-coordinate product tables for the m = 3 lattice; and the row route (``_point``) for one theta with finite
    coordinates >= 0, i.e. each refinement probe. The two beside the batch
    route stay because they are faster (on a 2-CPU x86-64 host): a probe,
    of about 34 per supremum at m = 2 and 152 at m = 3, takes 8-13 us as a
    row and 23-25 us as a one-row batch; the lattice pass at (n, m) = (12, 3)
    takes 17 ms gathered and 27-36 ms batched.
    ``_grid_values`` runs a grid or lattice at most GRID_CHUNK rows, and
    ``_SCRATCH_FLOATS`` floats, at a time through two scratch arrays made
    for that call, and a table keeps no scratch between calls and changes
    no attribute after it is built, so threads may share one.
    """

    def __init__(self, n: int, m: int, predictor: PredictorSpec | JointFn):
        table = _class_table(n, m)  # read-only, shared through DEFAULT_CACHE
        self.n = n
        self.m = m
        self.log_mult = table.log_mult
        self.columns = [table.counts[:, i].astype(np.float64) for i in range(m)]
        self.positive = table.counts > 0
        self.log_joint = joint_values(predictor, table)

    def _log_ptheta_batch(self, thetas: np.ndarray, out: np.ndarray, products: np.ndarray) -> bool:
        """The batch route: ln p_theta of (P, m) thetas into ``out`` (P, K), with ``products`` (P, K) as scratch.

        Returns whether every cell is finite.
        """
        logs = xlogy(1.0, thetas)
        zero = thetas == 0.0
        has_zero = zero.any()
        if has_zero:
            logs[zero] = 0.0
        # c * xlogy(1, theta) == xlogy(c, theta) bit for bit, and summing one
        # symbol at a time keeps the rounding of the per-cell formula
        np.multiply(logs[:, :1], self.columns[0], out=out)
        for i in range(1, self.m):
            out += np.multiply(logs[:, i, None], self.columns[i], out=products)
        if self.n == 0:
            out += 0.0  # the +0.0 a sum from zero gives the one class, whose products are all +-0
        if has_zero:
            for i in range(self.m):
                out[np.ix_(zero[:, i], self.positive[:, i])] = -np.inf
        return not has_zero and bool(np.isfinite(logs).all())

    def _row(self, coordinates: Sequence[float]) -> tuple[np.ndarray, bool]:
        """The row route: ln p_theta as a fresh (K,) row for one theta with finite coordinates >= 0.

        Returns the row and whether every cell of it is finite. ``math.log``
        is the C library's log, as ``xlogy`` is (``np.log`` is not, and
        differs in the last bit for some inputs), and the products are summed
        in the batch route's order, so the row equals the batch route's bit
        for bit, signs of zero included. A zero coordinate adds no product
        (the batch route adds +0.0, which changes no sum at n >= 1) and puts
        -inf where its count is positive.
        """
        out = None
        zeros = []
        for i, t in enumerate(coordinates):
            if t == 0.0:
                zeros.append(i)
            elif out is None:
                out = math.log(t) * self.columns[i]
            else:
                out += math.log(t) * self.columns[i]
        if out is None:
            out = np.zeros(self.log_mult.size)
        elif self.n == 0:
            out += 0.0
        for i in zeros:
            out[self.positive[:, i]] = -math.inf
        return out, not zeros

    def _point(self, coordinates: Sequence[float], alpha: float) -> float:
        """D_alpha(p_theta || predictor), KL at alpha = 1, at one theta with finite coordinates >= 0.

        The route of every refinement probe.
        """
        lp, finite = self._row(coordinates)
        return float(self._kl(lp, finite) if alpha == 1.0 else self._renyi_point(lp, alpha))

    def _grid_values(self, thetas: np.ndarray, alpha: float) -> np.ndarray:
        """D_alpha(p_theta || predictor), KL at alpha = 1, at every row of a simplex grid.

        ``thetas`` is the m = 2 grid, or at m = 3 points c / LATTICE_STEP of
        the lattice, whose rows are gathered from per-coordinate product
        tables at the counts c = theta * LATTICE_STEP (exact, as LATTICE_STEP
        is a power of two) instead of multiplied; other m = 3 rows take the
        batch route. Chunks of at most GRID_CHUNK rows and ``_SCRATCH_FLOATS``
        floats go through two scratch arrays made for this call; rows reduce
        on their own, so the chunking changes no value.
        """
        size, classes = len(thetas), self.log_mult.size
        chunk = min(GRID_CHUNK, max(1, _SCRATCH_FLOATS // classes))
        lp_buffer, scratch_buffer = np.empty((2, min(size, chunk), classes))
        gather = self.m == 3
        if gather:
            steps = thetas.T * LATTICE_STEP
            lattice = steps.astype(np.intp)  # row i holds coordinate i's counts
            gather = bool((lattice == steps).all())
        tables = self._lattice_products() if gather else None
        out = np.empty(size)
        for start in range(0, size, chunk):
            stop = min(start + chunk, size)
            lp, scratch = lp_buffer[: stop - start], scratch_buffer[: stop - start]
            if gather:
                numerators = lattice[:, start:stop]
                np.take(tables[0], numerators[0], axis=0, out=lp, mode="clip")
                for i in (1, 2):
                    lp += np.take(tables[i], numerators[i], axis=0, out=scratch, mode="clip")
                finite = bool(numerators.all())
            else:
                finite = self._log_ptheta_batch(thetas[start:stop], lp, scratch)
            out[start:stop] = self._kl(lp, finite, scratch) if alpha == 1.0 else self._renyi_rows(lp, alpha)
        return out

    def _lattice_products(self) -> np.ndarray:
        """(m, LATTICE_STEP + 1, K) table of the batch route's products at theta_i = v / LATTICE_STEP.

        Row v = 0 holds -inf where the count is positive (the zero-coordinate
        rule) and 0 elsewhere; table 0 adds the leading 0.0 the batch route's
        sum starts from, so three gathered rows add up to the batch route's
        values bit for bit.
        """
        logs = xlogy(1.0, np.arange(LATTICE_STEP + 1) / LATTICE_STEP)
        logs[0] = 0.0
        tables = logs[:, None] * np.array(self.columns)[:, None, :]
        tables[:, 0][self.positive.T] = -np.inf
        tables[0] += 0.0
        return tables

    def _kl(self, lp: np.ndarray, finite: bool, gap: np.ndarray | None = None) -> np.ndarray:
        """KL per row of lp, a (K,) row or (P, K), which it overwrites; ``gap`` (lp's shape) is scratch."""
        gap = np.subtract(lp, self.log_joint, out=gap)
        if not finite:
            gap[~np.isfinite(lp)] = 0.0  # 0 * ln(0 / q) = 0 where p_theta is 0
        lp += self.log_mult
        gap *= np.exp(lp, out=lp)
        return np.add.reduce(gap, axis=-1)

    def _renyi_rows(self, lp: np.ndarray, alpha: float) -> np.ndarray:
        """(ln s + hi) / (alpha - 1) per row of a (P, K) lp of ln p_theta, which it overwrites with the terms.

        hi is a row's largest term (``_renyi_inner``) and s its numpy sum of exp(term - hi); a row
        whose hi is +-inf gives +-inf.
        """
        inner = self._renyi_inner(lp, alpha)
        hi = inner.max(axis=1)
        if np.isnan(hi).any():
            raise NumericError("nan among the Renyi divergence's terms: p_theta and q are both 0 on a class")
        finite = np.isfinite(hi)
        if not finite.all():
            inner[~finite] = 0.0  # these rows take hi itself: no exp of their terms
        inner -= np.where(finite, hi, 0.0)[:, None]
        s = np.add.reduce(np.exp(inner, out=inner), axis=1)
        return np.where(finite, np.log(s) + hi, hi) / (alpha - 1.0)

    def _renyi_point(self, lp: np.ndarray, alpha: float) -> float:
        """D_alpha at one theta from its (K,) row, which it overwrites: ``_renyi_rows``' steps on a row."""
        inner = self._renyi_inner(lp, alpha)
        hi = float(inner.max())
        if math.isnan(hi):
            raise NumericError("nan among the Renyi divergence's terms: p_theta and q are both 0 on a class")
        if not math.isfinite(hi):
            return hi / (alpha - 1.0)
        inner -= hi
        return float((np.log(np.add.reduce(np.exp(inner, out=inner))) + hi) / (alpha - 1.0))

    def _renyi_inner(self, lp: np.ndarray, alpha: float) -> np.ndarray:
        """alpha ln p_theta + ln multiplicity + (1 - alpha) ln q, per cell, in place on lp."""
        lp *= alpha
        lp += self.log_mult
        with np.errstate(invalid="ignore"):  # q = p_theta = 0 on a class: -inf + inf, a nan the callers raise on
            lp += (1.0 - alpha) * self.log_joint
        return lp


def _golden_section_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    h = b - a
    c = a + invphi2 * h
    d = a + invphi * h
    yc, yd = f(c), f(d)
    while h > tol:
        if yc >= yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + invphi2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + invphi * h
            yd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _beats(value: float, best: float) -> bool:
    """True when value exceeds best by more than the TIE_REL window."""
    return value > best + TIE_REL * max(1.0, abs(best))


def _maximize(
    m: int,
    grid_values: Callable[[np.ndarray], np.ndarray],
    point_value: Callable[[tuple[float, ...]], float],
) -> tuple[SimplexPoint, float]:
    """Maximize over the simplex an objective given at all (P, m) grid rows at once and at one m-tuple.

    m = 2: GRID_POINTS points on [0, 1], endpoints included, then golden-section refinement to
    width GOLDEN_TOL. m = 3: the lattice of step 1/LATTICE_STEP, then at most REFINE_ITERS
    Nelder-Mead iterations. Ties go to the first point within TIE_REL of the maximum, which a
    refined point replaces only when better by more than that window. m >= 4 is unsupported.
    """
    if m == 2:
        ts = np.linspace(0.0, 1.0, GRID_POINTS)
        vals = grid_values(np.stack([ts, 1.0 - ts], axis=1))
        j = lex_argmax(vals)
        best_t, best_v = float(ts[j]), float(vals[j])
        lo = float(ts[max(j - 1, 0)])
        hi = float(ts[min(j + 1, GRID_POINTS - 1)])
        t_ref, v_ref = _golden_section_max(lambda t: point_value((t, 1.0 - t)), lo, hi, GOLDEN_TOL)
        if _beats(v_ref, best_v):
            best_t, best_v = t_ref, v_ref
        return SimplexPoint((best_t, 1.0 - best_t)), best_v
    if m == 3:
        from . import _ports  # imported on use: only m = 3 refines by Nelder-Mead
        thetas = _class_table(LATTICE_STEP, 3).counts / LATTICE_STEP
        vals = grid_values(thetas)
        k = lex_argmax(vals)
        best_v = float(vals[k])
        best_theta = thetas[k]

        def neg(t1: float, t2: float) -> float:
            t3 = 1.0 - t1 - t2
            if t1 < 0.0 or t2 < 0.0 or t3 < 0.0:
                return math.inf
            return -point_value((t1, t2, t3))

        x, fun, _, _ = _ports.nelder_mead(neg, best_theta[:2].tolist(), REFINE_ITERS, 1e-12, 1e-13)
        if math.isfinite(fun) and _beats(-fun, best_v):
            t1 = min(max(x[0], 0.0), 1.0)
            t2 = min(max(x[1], 0.0), 1.0 - t1)
            best_v = -fun
            best_theta = np.array([t1, t2, 1.0 - t1 - t2])
        t1, t2 = float(best_theta[0]), float(best_theta[1])
        return SimplexPoint((t1, t2, 1.0 - t1 - t2)), best_v
    raise UnsupportedError(f"simplex maximization supports m in {{2, 3}}, got m={m}")


def _class_max(counts: np.ndarray, vals: np.ndarray) -> tuple[float, CountVector]:
    """The largest of a scan's per-class values and its class; ties break to the lexicographically smallest."""
    k = lex_argmax(vals)
    return float(vals[k]), CountVector(tuple(counts[k].tolist()))


def _worst_case_scan(
    kind: str,
    benchmark: PredictorSpec,
    predictor: PredictorSpec | JointFn,
    n: int,
    m: int,
) -> RegretReport:
    """Max over type classes of the benchmark's log numerator minus the predictor's log joint.

    The one scan behind the plain (``NML()``) and luckiness
    (``LuckinessNML(b)``) worst-case regrets. When the predictor is the
    benchmark itself, its joints are the same numerators less the
    normalizer, so the numerators are evaluated once.
    """
    n, m = _validate_nm(n, m)
    table = _class_table(n, m)
    if predictor == benchmark:
        numerators, joints = _class_joints(benchmark, table)
    else:
        numerators = log_numerators(benchmark, table.counts)
        joints = joint_values(predictor, table)
    value, maximizer = _class_max(table.counts, numerators - joints)
    return RegretReport(kind, value, n, m, predictor, maximizer=maximizer)


def worst_case_regret(predictor: PredictorSpec | JointFn, n: int, m: int) -> RegretReport:
    """Max over type classes of ln(maximized likelihood) - ln(predictor joint).

    Ties break to the lexicographically smallest count vector. A predictor
    that assigns zero probability to an achievable type class yields +inf.
    """
    return _worst_case_scan("worst_case", NML(), predictor, n, m)


def sibson_mi_infinity(n: int, m: int) -> float:
    """ln of the Shtarkov sum: the minimax worst-case regret (NML's regret)."""
    return log_normalizer(NML(), n, m)


def _dirichlet_average(predictor: PredictorSpec | JointFn, params: DirichletParams, n: int, alpha: float) -> float:
    """The Dirichlet(params) average over theta of KL(p_theta || q) at alpha = 1; above 1, the tilted alpha-regret.

    q is the predictor, over the alphabet of ``params``, and the tilted alpha-regret is
    ln E[sum_x p_theta^alpha q^(1-alpha)] / (alpha - 1). Both are exact sums over the classes of
    ``_class_table``, since E[theta^(alpha c)] = B(alpha c + params) / B(params):
    * alpha = 1: the fsum of w_c (l_c - ln q_c), with w_c = mult(c) B(c + params) / B(params) the
      Dirichlet-multinomial and l_c = sum_i c_i (psi(params_i + c_i) - psi(sum params + n)) the
      Dirichlet(c + params) mean of ln p_theta(c). The difference stays per class: the split form
      n sum_i E[theta_i ln theta_i] - sum_c w_c ln q_c cancels two terms of about n H;
    * else: the log-sum-exp of ln mult(c) + ln B(alpha c + params) - ln B(params) + (1 - alpha) ln q_c,
      over alpha - 1.
    A value that is not finite (a class q rules out, say) raises NumericError.
    """
    table = _class_table(n, params.m)
    log_q = joint_values(predictor, table)
    log_weight = table.log_mult + _separable_rows(_separable(AlphaNML(alpha, params)), table.counts)
    if alpha == 1.0:
        from scipy.special import digamma  # imported on use: no CLI command averages KL

        psi = digamma(np.arange(n + 1.0)[:, None] + params.as_array())  # psi(params_i + k), k = 0..n
        top = float(digamma(math.fsum(params.a) + n))
        ell = _add_columns([c * (psi[c, i] - top) for i, c in enumerate(table.counts.T)])
        with np.errstate(invalid="ignore"):  # a weight of 0 times an infinite log loss, or inf - inf: nan, raised below
            terms = np.exp(log_weight) * (ell - log_q)
            value = math.fsum(memoryview(terms)) if np.isfinite(terms).all() else float(terms.sum())
    else:
        terms = log_weight + (1.0 - alpha) * log_q
        hi = float(terms.max())
        value = (log_sum_exp(terms) if math.isfinite(hi) else hi) / (alpha - 1.0)
    if not math.isfinite(value):
        raise NumericError(f"the average over Dirichlet{params.a} of order {alpha!r} is {value!r}", partial=value)
    return value


def sibson_mi_alpha(n: int, m: int, alpha: float, a: DirichletParams) -> float:
    """Information radius of order alpha between the prior and the source.

    For alpha > 1: (alpha/(alpha-1)) * ln sum over counts of multiplicity *
    (integral of Dirichlet(a) * p^alpha)^(1/alpha). The alpha = 1 limit is
    the mutual information E_a[KL(p_theta || mixture)], an exact sum over the
    type classes (``_dirichlet_average``).
    """
    _check_alphabet(a, m, "prior")
    _check_order(alpha)
    if alpha == 1.0:
        return _dirichlet_average(Mixture(a), a, n, 1.0)
    return alpha / (alpha - 1.0) * log_normalizer(AlphaNML(alpha, a), n, m)


def w_alpha_direct(n: int, m: int, alpha: float, a: DirichletParams) -> WAlphaResult:
    """Max over counts of ln ML - (1/alpha) ln(integral of prior * p^alpha).

    The remainder term in the worst-case-regret identity for the alpha
    family; ties break lexicographically smallest.
    """
    _check_alphabet(a, m, "prior")
    counts = _class_table(n, m).counts
    vals = log_numerators(NML(), counts) - log_numerators(AlphaNML(alpha, a), counts)
    return WAlphaResult(*_class_max(counts, vals))


def w_alpha_closed(n: int, m: int, alpha: float, a: DirichletParams | None = None) -> float:
    """Closed form of the worst-case remainder under the Jeffreys prior.

    (1/alpha) * [ln Gamma(alpha n + m/2) - ln Gamma(alpha n + 1/2)]
    + ln(pi)/(2 alpha) - ln Gamma(m/2)/alpha. Only the Jeffreys prior has
    this form; other priors raise UnsupportedError.
    """
    n, m = _validate_nm(n, m)
    _check_order(alpha)
    if a is not None and a != DirichletParams.jeffreys(m):
        raise UnsupportedError("the closed form holds for the Jeffreys prior only")
    return (
        (log_gamma(alpha * n + m / 2.0) - log_gamma(alpha * n + 0.5)) / alpha
        + LOG_PI / (2.0 * alpha)
        - log_gamma(m / 2.0) / alpha
    )


def infinity_split_check(predictor: PredictorSpec | JointFn, n: int, m: int) -> tuple[float, float]:
    """Both sides of: worst-case regret = ln Shtarkov sum + D_inf(NML || predictor).

    Returns (lhs, rhs); a zero-probability type class makes both sides +inf.
    """
    lhs = worst_case_regret(predictor, n, m).value_nats
    table = _class_table(n, m)
    gap = np.max(joint_values(NML(), table) - joint_values(predictor, table))
    rhs = sibson_mi_infinity(n, m) + float(gap)
    return lhs, rhs


def alpha_split_check(alpha: float, n: int, m: int, a: DirichletParams) -> tuple[float, float]:
    """Both sides of the alpha-family worst-case decomposition.

    lhs: worst-case regret of the alpha predictor. rhs: ((alpha-1)/alpha) *
    I_alpha + the direct remainder maximum.
    """
    lhs = worst_case_regret(AlphaNML(alpha, a), n, m).value_nats
    rhs = (alpha - 1.0) / alpha * sibson_mi_alpha(n, m, alpha, a) + w_alpha_direct(n, m, alpha, a).value
    return lhs, rhs


def renyi_divergence_vs_predictor(
    theta: Sequence[float] | SimplexPoint,
    predictor: PredictorSpec | JointFn,
    n: int,
    alpha: float,
) -> float:
    """D_alpha(p_theta^n || predictor) on sequence space; alpha = 1 is KL."""
    point = theta if isinstance(theta, SimplexPoint) else SimplexPoint(tuple(float(t) for t in theta))
    _check_order(alpha)
    return TypeClassTable(n, point.m, predictor)._point(point.as_array().tolist(), alpha)


def _theta_sup(
    kind: str,
    predictor: PredictorSpec | JointFn,
    n: int,
    m: int,
    alpha: float,
    density: DirichletParams | None = None,
) -> RegretReport:
    """sup over theta of [ln Dirichlet(density)(theta) +] D_alpha(p_theta || predictor), reported as ``kind``.

    The one driver behind every supremum over theta. The order, m and the
    theta budget (the grid's or lattice's points times the classes of
    (n, m)) are checked before the class table is built, so an unsupported
    request allocates nothing.
    """
    _check_order(alpha)
    if m not in (2, 3):
        caller = "alpha_regret" if density is None else "luckiness_alpha_regret_supform"
        raise UnsupportedError(f"{caller} supports m in {{2, 3}}, got m={m}")
    n, m = _validate_nm(n, m)
    points = GRID_POINTS if m == 2 else count_vector_total(LATTICE_STEP, 3)
    cells = points * count_vector_total(n, m)
    _check_budget(f"a theta route of {points} points at (n, m) = ({n}, {m})", cells, "cells", _MAX_THETA_CELLS)
    table = TypeClassTable(n, m, predictor)

    def grid_values(thetas: np.ndarray) -> np.ndarray:
        values = table._grid_values(thetas, alpha)
        return values if density is None else density.log_pdf(thetas) + values  # log_pdf works row by row

    def point_value(theta: tuple[float, ...]) -> float:
        value = table._point(theta, alpha)
        return value if density is None else float(density.log_pdf([theta])[0]) + value

    point, value = _maximize(m, grid_values, point_value)
    return RegretReport(kind, value, n, m, predictor, alpha=alpha, maximizer=point)


def average_regret(predictor: PredictorSpec | JointFn, n: int, m: int) -> RegretReport:
    """sup over theta of KL(p_theta || predictor): the alpha -> 1 regret."""
    return alpha_regret(predictor, n, m, 1.0)


def alpha_regret(predictor: PredictorSpec | JointFn, n: int, m: int, alpha: float) -> RegretReport:
    """sup over theta of D_alpha(p_theta || predictor) on sequence space.

    alpha = 1 gives the average regret (KL objective). The order relates to
    an exponential tilt of the loss by tilt = alpha - 1. Supported for
    m in {2, 3}; the maximizing theta is reported.
    """
    return _theta_sup("average" if alpha == 1.0 else "alpha", predictor, n, m, alpha)


def predictor_kl(
    p: PredictorSpec | JointFn,
    q: PredictorSpec | JointFn,
    n: int,
    m: int,
) -> float:
    """KL(p || q) between two exchangeable predictors on sequence space."""
    table = _class_table(n, m)
    lp = joint_values(p, table)
    support = lp != -math.inf
    lq = joint_values(q, table)[support]
    lp = lp[support]
    return math.fsum(memoryview(np.exp(table.log_mult[support] + lp) * (lp - lq)))


def _asymptote_base(n: int, m: int) -> float:
    """(m-1)/2 ln(n/2) + ln(pi)/2 - ln Gamma(m/2), the order-free part of both large-n formulas; n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    n, m = _validate_nm(n, m)  # nan, fractional n and m < 2 pass the test above
    return (m - 1) / 2.0 * math.log(n / 2.0) + LOG_PI / 2.0 - log_gamma(m / 2.0)


def asymptotic_rmax(n: int, m: int, alpha: float) -> float:
    """Large-n worst-case regret of the alpha family under the Jeffreys prior.

    (m-1)/2 ln(n/2) + ln(pi)/2 - ln Gamma(m/2) + (m-1)/(2 alpha) ln 2; the
    last term vanishes as alpha -> infinity, recovering the NML asymptote.
    """
    _check_order(alpha, finite=False)
    return _asymptote_base(n, m) + (m - 1) / (2.0 * alpha) * LOG_TWO


def asymptotic_min_alpha_regret(n: int, m: int, alpha: float) -> float:
    """Large-n minimax alpha-regret (the I_alpha asymptote), alpha > 1."""
    _check_order(alpha, above_one=True)
    return _asymptote_base(n, m) - (m - 1) / (2.0 * (alpha - 1.0)) * math.log(alpha)


def figure1_table(n_list: Sequence[int], alpha_list: Sequence[float], m: int = 2) -> list[dict]:
    """Percent worst-case-regret increase of the alpha family over NML.

    One row per (n, alpha): 100 * (Rmax(alpha predictor) - Rmax(NML)) /
    Rmax(NML) under the Jeffreys prior, plus both regrets in nats; n >= 1.
    """
    rows: list[dict] = []
    a = DirichletParams.jeffreys(m)
    for n in n_list:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        nml_regret = sibson_mi_infinity(n, m)
        for alpha in alpha_list:
            spec = Mixture(a) if alpha == 1.0 else AlphaNML(float(alpha), a)
            value = worst_case_regret(spec, n, m).value_nats
            rows.append(
                {
                    "n": int(n),
                    "alpha": float(alpha),
                    "regret_nats": value,
                    "nml_regret_nats": nml_regret,
                    "percent_increase": 100.0 * (value - nml_regret) / nml_regret,
                }
            )
    return rows
