"""Regret analysis for exchangeable predictors over memoryless sources.

Three regret notions share one engine:

* worst-case regret: max over sequences of ln(maximized likelihood / p-hat),
  computed on the array of all type classes;
* average regret: sup over source parameters theta of KL(p_theta || p-hat)
  on sequence space;
* alpha-regret: sup over theta of the Renyi divergence of order alpha,
  which recovers the average regret as alpha -> 1 and the worst case as
  alpha -> infinity.

Every supremum over theta (average, alpha and the luckiness supremum form)
runs on one driver, which checks the alphabet before it builds a class
table, and every Dirichlet average of KL on one quadrature.

The information radius I_alpha (a Sibson mutual information between the
source parameter and the sequence) is the matching lower bound and shows up
in the identity checks: the worst-case regret of any predictor equals
I_infinity plus its order-infinity divergence from NML, and for the alpha
family it splits into ((alpha-1)/alpha) I_alpha plus a closed-form remainder
with a Gamma-ratio expression under the Jeffreys prior.

Maximization over theta uses a dense grid plus golden-section refinement on
the 1-simplex, and a triangular lattice plus Nelder-Mead refinement on the
2-simplex; the grid and the lattice are evaluated GRID_CHUNK points per
objective call. The refinement probes and the quadrature nodes are single
interior points, which ``TypeClassTable`` evaluates on (K,) rows with the
batch route's operations, so they cost a few numpy calls each and give the
batch route's values bit for bit. Argmax ties break to the
lexicographically smallest point: ``lex_argmax`` takes the first candidate
within a relative ``TIE_REL`` of the maximum, and a refinement replaces it
only when it is better by more than that window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import NumericError, UnsupportedError
from .numerics import (
    LOG_PI,
    LOG_TWO,
    accept_quadrature,
    log_gamma,
    log_multivariate_beta,
    log_sum_exp_array,
    xlogy,
)
from .predictors import (
    AlphaNML,
    DirichletParams,
    Mixture,
    NML,
    PredictorSpec,
    _cached_log_normalizer,
    _class_table,
    log_joints,
    log_normalizer,
    log_numerators,
)
from .typeclass import CountVector

JointFn = Callable[[CountVector], float]

GRID_POINTS = 4096  # m = 2 grid resolution before golden-section refinement
LATTICE_STEP = 256  # m = 3 triangular-lattice resolution (step 1/256)
REFINE_ITERS = 200  # m = 3 Nelder-Mead refinement iterations
GOLDEN_TOL = 1e-10  # m = 2 refinement width in theta
TIE_REL = 1e-12  # relative window treating argmax candidates as tied
GRID_CHUNK = 512  # grid and lattice points per objective call; keeps the (points, classes) temporaries in cache


def _check_order(alpha: float, *, above_one: bool = False, finite: bool = True) -> None:
    """Raise ValueError unless alpha >= 1 (alpha > 1 with ``above_one``) and, with ``finite``, alpha < inf.

    A nan order fails the first test.
    """
    if not (alpha > 1.0 if above_one else alpha >= 1.0):
        raise ValueError(f"alpha must be {'>' if above_one else '>='} 1, got {alpha}")
    if finite and alpha == math.inf:
        raise ValueError(f"alpha must be finite, got {alpha}")


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


def joint_values(
    predictor: PredictorSpec | JointFn, counts: np.ndarray, log_mult: np.ndarray | None = None
) -> np.ndarray:
    """ln joint of every class of (n, m), for a spec or any counts -> log-prob callable.

    ``counts`` holds every class once (``count_vectors(n, m)``); a spec's
    joints come from ``log_joints(..., complete=True)``, which also takes
    ``log_mult``.
    """
    if isinstance(predictor, PredictorSpec):
        return log_joints(predictor, counts, complete=True, log_mult=log_mult)
    if callable(predictor):
        return np.array([predictor(CountVector(tuple(row))) for row in counts.tolist()], dtype=np.float64)
    raise TypeError(f"predictor must be a PredictorSpec or callable, got {predictor!r}")


class TypeClassTable:
    """Precomputed per-type-class arrays for one (n, m, predictor) triple.

    Holds counts, log multiplicities and predictor log joints, and evaluates
    divergence objectives vectorized over batches of source parameters.
    The batch route takes ``xlogy(1, theta)`` once per coordinate and scales
    it by each class's counts; the 0 * ln 0 = 0 rule for a zero coordinate
    lives there, in the ``positive`` table (counts > 0) that marks where it
    gives -inf. A batch of one theta whose coordinates are all positive and
    finite (a quadrature node, a golden-section or Nelder-Mead probe) takes
    the row kernel instead: the same operations in the same order on (K,)
    rows, so every value equals the batch route's bit for bit at a fraction
    of its per-call cost. ``(1 - alpha) * log_joint`` is computed once per
    alpha.
    """

    def __init__(self, n: int, m: int, predictor: PredictorSpec | JointFn):
        counts, self.log_mult = _class_table(n, m)  # read-only, shared through DEFAULT_CACHE
        self.n = n
        self.m = m
        self.counts = counts.astype(np.float64)
        self.columns = [np.ascontiguousarray(self.counts[:, i]) for i in range(m)]
        self.positive = counts > 0
        self.log_joint = joint_values(predictor, counts, self.log_mult)
        self._tilt: tuple[float | None, np.ndarray | None] = (None, None)  # (alpha, (1 - alpha) * log_joint)

    def log_ptheta(self, thetas: np.ndarray) -> np.ndarray:
        """(P, K) matrix of ln p_theta(counts) for a (P, m) batch of simplex points."""
        return np.atleast_2d(self._log_ptheta(thetas)[0])

    def renyi_values(self, thetas: np.ndarray, alpha: float) -> np.ndarray:
        """D_alpha(p_theta || predictor) on sequence space, per theta row."""
        if alpha == 1.0:
            return self.kl_values(thetas)
        if len(thetas) == 1:
            hi, total = self.renyi_sum(thetas, alpha)
            if math.isfinite(hi):
                # log_sum_exp_array's steps for a row with a finite maximum
                return (np.log([total]) + hi) / (alpha - 1.0)
        inner = self._renyi_inner(self._log_ptheta(thetas)[0], alpha)
        return log_sum_exp_array(np.atleast_2d(inner), axis=1) / (alpha - 1.0)

    def renyi_sum(self, theta, alpha: float) -> tuple[float, float]:
        """(hi, s) for one theta: the largest term over the classes, and s = sum of exp(term - hi).

        A class's term is alpha ln p_theta + ln multiplicity + (1 - alpha) ln q;
        s is nan unless hi is finite.
        """
        inner = self._renyi_inner(self._log_ptheta(theta)[0].reshape(-1), alpha)  # one row, from either route
        hi = float(inner.max())
        if not math.isfinite(hi):
            return hi, math.nan
        inner -= hi
        return hi, float(np.add.reduce(np.exp(inner, out=inner)))

    def kl_values(self, thetas: np.ndarray) -> np.ndarray:
        """KL(p_theta || predictor) on sequence space, per theta row."""
        lp, finite = self._log_ptheta(thetas)
        # 0 * ln(0 / q) = 0 where p_theta is 0; the mask is the identity when every cell is finite
        gap = lp - self.log_joint if finite else np.where(np.isfinite(lp), lp - self.log_joint, 0.0)
        lp += self.log_mult
        gap *= np.exp(lp, out=lp)
        return np.add.reduce(gap, axis=-1, keepdims=gap.ndim == 1)  # (1,) for a row, (P,) for a batch

    def _log_ptheta(self, thetas) -> tuple[np.ndarray, bool]:
        """ln p_theta, and whether every cell of it is finite.

        One theta whose coordinates are all in (0, inf) takes the row kernel
        and gives a (K,) row; any other batch takes the batch route and gives
        (P, K).
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim != 2:
            thetas = np.atleast_2d(thetas)
        if thetas.shape[0] == 1:
            (coordinates,) = thetas.tolist()
            if all(0.0 < t < math.inf for t in coordinates):
                return self._row(coordinates), True
        return self._log_ptheta_batch(thetas)

    def _log_ptheta_batch(self, thetas: np.ndarray) -> tuple[np.ndarray, bool]:
        """The batch route: (P, K) ln p_theta, and whether every cell of it is finite."""
        logs = xlogy(1.0, thetas)
        zero = thetas == 0.0
        has_zero = zero.any()
        if has_zero:
            logs[zero] = 0.0
        # c * xlogy(1, theta) == xlogy(c, theta) bit for bit, and summing from
        # zero one symbol at a time keeps the rounding of the per-cell formula
        out = np.zeros((thetas.shape[0], self.counts.shape[0]))
        for i in range(self.m):
            out += logs[:, i, None] * self.columns[i]
        if has_zero:
            for i in range(self.m):
                out[np.ix_(zero[:, i], self.positive[:, i])] = -np.inf
        return out, not has_zero and bool(np.isfinite(logs).all())

    def _row(self, coordinates: list[float]) -> np.ndarray:
        """The row kernel: ln p_theta as a (K,) row for one theta with coordinates in (0, inf).

        ``math.log`` is the C library's log, as ``xlogy`` is (``np.log`` is
        not, and differs in the last bit for some inputs), and the sum runs
        from zero one symbol at a time as in the batch route, so the row
        equals the batch route's bit for bit, signs of zero included.
        """
        out = np.zeros(self.log_mult.size)
        for t, column in zip(coordinates, self.columns):
            out += math.log(t) * column
        return out

    def _renyi_inner(self, lp: np.ndarray, alpha: float) -> np.ndarray:
        """alpha ln p_theta + ln multiplicity + (1 - alpha) ln q, per cell, in place on lp."""
        tilt_alpha, tilt = self._tilt
        if alpha != tilt_alpha:
            tilt = (1.0 - alpha) * self.log_joint
            self._tilt = (alpha, tilt)
        lp *= alpha
        lp += self.log_mult
        lp += tilt
        return lp


def integrate_unit_interval(f: Callable[[float], float]) -> tuple[float, float]:
    """Adaptive integral of f over [0, 1] with endpoint-singularity splitting.

    The pieces [0, 1e-3], [1e-3, 1 - 1e-3] and [1 - 1e-3, 1] each get
    ``quad`` with absolute tolerance 1e-11, relative tolerance 1e-12 and at
    most 200 subintervals. Returns (value, error estimate); callers compare
    the estimate against their own tolerance (``accept_quadrature``), so
    scipy's IntegrationWarning is suppressed rather than passed on.
    """
    from scipy import integrate  # imported on use: slow to load, and most commands never integrate
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in ((0.0, 1e-3), (1e-3, 1.0 - 1e-3), (1.0 - 1e-3, 1.0)):
            value, estimate = integrate.quad(f, lo, hi, epsabs=1e-11, epsrel=1e-12, limit=200)
            total += value
            err += estimate
    return total, err


class DirichletDensity:
    """The Dirichlet(params) density on the simplex.

    The normalizer ln B(a) and the exponents a_i - 1 are computed once, at
    construction, not on every evaluation.
    """

    def __init__(self, params: DirichletParams):
        self.neg_log_norm = -log_multivariate_beta(params.a)
        self.exponents = params.as_array() - 1.0

    def log_pdf(self, thetas: np.ndarray) -> np.ndarray:
        """ln of the density at each row of a (P, m) batch of thetas.

        A zero theta_i under a negative exponent a_i - 1 makes the density
        +inf, whatever another zero coordinate's exponent is.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
        terms = xlogy(self.exponents, thetas)
        if not thetas.all():
            terms[np.isposinf(terms).any(axis=1)] = np.inf  # no +inf plus -inf, which would be nan
        out = self.neg_log_norm + terms[:, 0]
        for i in range(1, self.exponents.size):
            out += terms[:, i]
        return out


def dirichlet_quadrature(
    params: DirichletParams, weighted: Callable[[float, np.ndarray], float]
) -> tuple[float, float]:
    """Integral over t in [0, 1] of weighted(density, theta) at theta = [[t, 1 - t]].

    ``density`` is the Dirichlet(params) density at theta; the integrand
    multiplies it into its own term. The density is evaluated on scalars,
    in the order of ``DirichletDensity.log_pdf``. Returns (value, error
    estimate) of ``integrate_unit_interval``.
    """
    density = DirichletDensity(params)
    neg_log_norm = density.neg_log_norm
    e0, e1 = density.exponents.tolist()

    def integrand(t: float) -> float:
        s = 1.0 - t
        return weighted(math.exp(neg_log_norm + xlogy(e0, t) + xlogy(e1, s)), np.array([[t, s]]))

    return integrate_unit_interval(integrand)


def _golden_section_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
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


def _embed2(ts: np.ndarray) -> np.ndarray:
    return np.stack([ts, 1.0 - ts], axis=1)


def _chunked_values(objective: Callable[[np.ndarray], np.ndarray], thetas: np.ndarray) -> np.ndarray:
    """objective over the rows of thetas, GRID_CHUNK rows per call."""
    return np.concatenate(
        [np.asarray(objective(thetas[start : start + GRID_CHUNK]), dtype=np.float64)
         for start in range(0, thetas.shape[0], GRID_CHUNK)]
    )


def maximize_on_simplex(m: int, objective: Callable[[np.ndarray], np.ndarray]) -> tuple[SimplexPoint, float]:
    """Maximize a vectorized objective((P, m) thetas) -> (P,) over the simplex.

    m = 2: uniform grid of GRID_POINTS points on [0, 1] including both
    endpoints, then golden-section refinement to width GOLDEN_TOL. m = 3:
    triangular lattice of step 1/LATTICE_STEP then Nelder-Mead refinement
    capped at REFINE_ITERS iterations. The first grid or lattice point
    within TIE_REL of the maximum wins ties, and a refined point replaces it
    only when better by more than that window; larger alphabets are
    unsupported.
    """
    if m == 2:
        ts = np.linspace(0.0, 1.0, GRID_POINTS)
        vals = _chunked_values(objective, _embed2(ts))
        j = lex_argmax(vals)
        best_t, best_v = float(ts[j]), float(vals[j])

        def f(t: float) -> float:
            return float(objective(np.array([[t, 1.0 - t]]))[0])

        lo = float(ts[max(j - 1, 0)])
        hi = float(ts[min(j + 1, GRID_POINTS - 1)])
        t_ref, v_ref = _golden_section_max(f, lo, hi, GOLDEN_TOL)
        if _beats(v_ref, best_v):
            best_t, best_v = t_ref, v_ref
        return SimplexPoint((best_t, 1.0 - best_t)), best_v
    if m == 3:
        from scipy import optimize  # imported on use: slow to load, and only m = 3 needs it
        thetas = _class_table(LATTICE_STEP, 3).counts / LATTICE_STEP
        vals = _chunked_values(objective, thetas)
        k = lex_argmax(vals)
        best_v = float(vals[k])
        best_theta = thetas[k]

        def neg(xy: np.ndarray) -> float:
            t1, t2 = float(xy[0]), float(xy[1])
            t3 = 1.0 - t1 - t2
            if t1 < 0.0 or t2 < 0.0 or t3 < 0.0:
                return math.inf
            return -float(objective(np.array([[t1, t2, t3]]))[0])

        res = optimize.minimize(
            neg,
            x0=best_theta[:2],
            method="Nelder-Mead",
            options={"maxiter": REFINE_ITERS, "xatol": 1e-12, "fatol": 1e-13},
        )
        if math.isfinite(res.fun) and _beats(-float(res.fun), best_v):
            t1 = min(max(float(res.x[0]), 0.0), 1.0)
            t2 = min(max(float(res.x[1]), 0.0), 1.0 - t1)
            best_v = -float(res.fun)
            best_theta = np.array([t1, t2, 1.0 - t1 - t2])
        point = SimplexPoint((float(best_theta[0]), float(best_theta[1]), 1.0 - float(best_theta[0]) - float(best_theta[1])))
        return point, best_v
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
    counts, log_mult = _class_table(n, m)
    numerators = log_numerators(benchmark, counts)
    if predictor == benchmark:
        # log_joints' steps for a complete scan, on the numerators at hand
        joints = numerators - _cached_log_normalizer(benchmark, n, m, counts, numerators, log_mult)
    else:
        joints = joint_values(predictor, counts, log_mult)
    value, maximizer = _class_max(counts, numerators - joints)
    return RegretReport(
        kind=kind,
        value_nats=value,
        n=n,
        m=m,
        predictor=predictor,
        maximizer=maximizer,
    )


def worst_case_regret(predictor: PredictorSpec | JointFn, n: int, m: int) -> RegretReport:
    """Max over type classes of ln(maximized likelihood) - ln(predictor joint).

    Ties break to the lexicographically smallest count vector. A predictor
    that assigns zero probability to an achievable type class yields +inf.
    """
    return _worst_case_scan("worst_case", NML(), predictor, n, m)


def sibson_mi_infinity(n: int, m: int) -> float:
    """ln of the Shtarkov sum: the minimax worst-case regret (NML's regret)."""
    return log_normalizer(NML(), n, m)


def _average_kl(predictor: PredictorSpec | JointFn, params: DirichletParams, n: int, what: str) -> float:
    """E over theta ~ Dirichlet(params) of KL(p_theta || predictor) at m = 2, by quadrature accepted at 1e-8.

    The one quadrature behind the order-one radius and the average luckiness
    regret; ``what`` names the quantity in a rejection.
    """
    table = TypeClassTable(n, 2, predictor)
    value, err = dirichlet_quadrature(params, lambda pdf, theta: pdf * float(table.kl_values(theta)[0]))
    return accept_quadrature(value, err, 1e-8, what)


def sibson_mi_alpha(n: int, m: int, alpha: float, a: DirichletParams) -> float:
    """Information radius of order alpha between the prior and the source.

    For alpha > 1: (alpha/(alpha-1)) * ln sum over counts of multiplicity *
    (integral of Dirichlet(a) * p^alpha)^(1/alpha). The alpha = 1 limit is
    the mutual information E_a[KL(p_theta || mixture)], computed by
    quadrature and supported for m = 2 only.
    """
    if a.m != m:
        raise ValueError(f"prior has m={a.m}, got m={m}")
    _check_order(alpha)
    if alpha == 1.0:
        if m != 2:
            raise UnsupportedError("the alpha = 1 limit is quadrature-based and supports m = 2 only")
        return _average_kl(Mixture(a), a, n, "I_1")
    return alpha / (alpha - 1.0) * log_normalizer(AlphaNML(alpha, a), n, m)


def w_alpha_direct(n: int, m: int, alpha: float, a: DirichletParams) -> WAlphaResult:
    """Max over counts of ln ML - (1/alpha) ln(integral of prior * p^alpha).

    The remainder term in the worst-case-regret identity for the alpha
    family; ties break lexicographically smallest.
    """
    if a.m != m:
        raise ValueError(f"prior has m={a.m}, got m={m}")
    counts = _class_table(n, m).counts
    vals = log_numerators(NML(), counts) - log_numerators(AlphaNML(alpha, a), counts)
    return WAlphaResult(*_class_max(counts, vals))


def w_alpha_closed(n: int, m: int, alpha: float, a: DirichletParams | None = None) -> float:
    """Closed form of the worst-case remainder under the Jeffreys prior.

    (1/alpha) * [ln Gamma(alpha n + m/2) - ln Gamma(alpha n + 1/2)]
    + ln(pi)/(2 alpha) - ln Gamma(m/2)/alpha. Only the Jeffreys prior has
    this form; other priors raise UnsupportedError.
    """
    if a is not None and tuple(a.a) != (0.5,) * m:
        raise UnsupportedError("the closed form holds for the Jeffreys prior only")
    _check_order(alpha)
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
    counts, log_mult = _class_table(n, m)
    nml = log_joints(NML(), counts, complete=True, log_mult=log_mult)
    gap = np.max(nml - joint_values(predictor, counts, log_mult))
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
    if isinstance(theta, SimplexPoint):
        point = theta.as_array()
    else:
        point = SimplexPoint(tuple(float(t) for t in theta)).as_array()
    _check_order(alpha)
    table = TypeClassTable(n, point.size, predictor)
    return float(table.renyi_values(point[None, :], alpha)[0])


def _theta_sup(
    kind: str,
    predictor: PredictorSpec | JointFn,
    n: int,
    m: int,
    alpha: float,
    log_weight: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RegretReport:
    """sup over theta of [log_weight(theta) +] D_alpha(p_theta || predictor), reported as ``kind``.

    The one driver behind every supremum over theta. The order and m are
    checked before the class table is built, so an unsupported alphabet
    allocates nothing.
    """
    _check_order(alpha)
    if m not in (2, 3):
        caller = "alpha_regret" if log_weight is None else "luckiness_alpha_regret_supform"
        raise UnsupportedError(f"{caller} supports m in {{2, 3}}, got m={m}")
    table = TypeClassTable(n, m, predictor)

    def objective(thetas: np.ndarray) -> np.ndarray:
        if log_weight is None:
            return table.renyi_values(thetas, alpha)
        return log_weight(thetas) + table.renyi_values(thetas, alpha)

    point, value = maximize_on_simplex(m, objective)
    return RegretReport(
        kind=kind,
        value_nats=value,
        n=n,
        m=m,
        predictor=predictor,
        alpha=alpha,
        maximizer=point,
    )


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
    counts, log_mult = _class_table(n, m)
    lp = joint_values(p, counts, log_mult)
    support = lp != -math.inf
    lq = joint_values(q, counts, log_mult)[support]
    lp = lp[support]
    return math.fsum(np.exp(log_mult[support] + lp) * (lp - lq))


def _asymptote_base(n: int, m: int) -> float:
    """(m-1)/2 ln(n/2) + ln(pi)/2 - ln Gamma(m/2), the order-free part of both large-n formulas; n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
    Rmax(NML) under the Jeffreys prior, plus both regrets in nats.
    """
    rows: list[dict] = []
    a = DirichletParams.jeffreys(m)
    for n in n_list:
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
