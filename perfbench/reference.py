"""Independent references for checking benchmark results.

Nothing here calls into alphanml. Type classes come from a stars-and-bars
enumeration of bar positions, every per-class quantity is a closed form in
``scipy.special.gammaln``, and reductions use ``scipy.special.logsumexp``.
The checks in ``workloads`` compare the library's answers to these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import digamma, gammaln, logsumexp, xlogy


def compositions(n: int, m: int) -> np.ndarray:
    """All count vectors of (n, m) as a (K, m) int array, ascending lexicographic.

    Bar positions b_0 < ... < b_{m-2} among n + m - 1 slots give counts
    c_0 = b_0, c_i = b_i - b_{i-1} - 1, c_{m-1} = n + m - 2 - b_{m-2};
    lexicographic order of the bars is lexicographic order of the counts.
    """
    slots = n + m - 1
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), m - 1)), dtype=np.int64
    )
    bars = flat.reshape(-1, m - 1)
    edges = np.hstack([np.full((bars.shape[0], 1), -1), bars, np.full((bars.shape[0], 1), slots)])
    return np.diff(edges, axis=1) - 1


def log_multiplicity(counts: np.ndarray) -> np.ndarray:
    n = counts.sum(axis=1)
    return gammaln(n + 1.0) - gammaln(counts + 1.0).sum(axis=1)


def log_beta(params: np.ndarray) -> np.ndarray:
    """ln B(a) along the last axis."""
    params = np.asarray(params, dtype=np.float64)
    return gammaln(params).sum(axis=-1) - gammaln(params.sum(axis=-1))


def alpha_log_numerator(counts: np.ndarray, alpha: float, a) -> np.ndarray:
    """(1/alpha) ln of the integral of Dirichlet(a) * p_theta^alpha, per class."""
    a = np.asarray(a, dtype=np.float64)
    return (log_beta(alpha * counts + a) - log_beta(a)) / alpha


def log_max_likelihood(counts: np.ndarray) -> np.ndarray:
    n = counts.sum(axis=1)
    return xlogy(counts, counts).sum(axis=1) - xlogy(n, n)


def log_luckiness_supremum(counts: np.ndarray, b) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    e = counts + b - 1.0
    total = e.sum(axis=1)
    return xlogy(e, e).sum(axis=1) - xlogy(total, total) - log_beta(b)


def log_normalizer(counts: np.ndarray, log_numerator: np.ndarray) -> float:
    return float(logsumexp(log_multiplicity(counts) + log_numerator))


def argmax_lex(values: np.ndarray, tie_rel: float) -> tuple[float, int]:
    """(max, index of the first entry within the tie window of the max)."""
    best = float(values.max())
    idx = int(np.argmax(values >= best - tie_rel * max(1.0, abs(best))))
    return best, idx


def shtarkov_km(n: int, m: int) -> float:
    """ln of the multinomial Shtarkov sum by the Kontkanen-Myllymaki recurrence.

    C(n, 1) = 1, C(n, 2) = sum_h binom(n, h) (h/n)^h ((n-h)/n)^(n-h),
    C(n, k + 2) = C(n, k + 1) + (n / k) C(n, k)  (Inf. Proc. Letters 103(6), 2007).
    """
    h = np.arange(n + 1, dtype=np.float64)
    binary = logsumexp(
        gammaln(n + 1.0) - gammaln(h + 1.0) - gammaln(n - h + 1.0) + xlogy(h, h / n) + xlogy(n - h, (n - h) / n)
    )
    prev, cur = 1.0, math.exp(binary)
    for k in range(1, m - 1):
        prev, cur = cur, cur + n / k * prev
    return math.log(cur)


def log_ptheta(counts: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """(P, K) ln p_theta of one sequence of each class, for (P, m) thetas."""
    out = np.zeros((thetas.shape[0], counts.shape[0]))
    for i in range(counts.shape[1]):
        out += xlogy(counts[None, :, i], thetas[:, i, None])
    return out


def renyi(counts: np.ndarray, log_q: np.ndarray, thetas: np.ndarray, alpha: float) -> np.ndarray:
    """D_alpha(p_theta^n || q) per theta row; alpha = 1 is KL. log_q is per sequence."""
    lm = log_multiplicity(counts)
    lp = log_ptheta(counts, np.atleast_2d(thetas))
    if alpha == 1.0:
        weight = np.exp(lm + lp)
        gap = np.where(np.isfinite(lp), lp - log_q, 0.0)
        return (weight * gap).sum(axis=1)
    inner = lm + alpha * lp + (1.0 - alpha) * log_q
    top = inner.max(axis=1)  # finite: the class a vertex theta puts all its mass on has lp = 0
    return (top + np.log(np.exp(inner - top[:, None]).sum(axis=1))) / (alpha - 1.0)


def expected_kl(counts: np.ndarray, log_q: np.ndarray, b) -> float:
    """E over theta ~ Dirichlet(b) of KL(p_theta^n || q), in closed form.

    E[sum_x p ln p] = n sum_i (b_i/B)(psi(b_i + 1) - psi(B + 1)), and the
    cross term weights ln q by the Dirichlet(b) mixture of each class.
    """
    b = np.asarray(b, dtype=np.float64)
    total = b.sum()
    n = int(counts[0].sum())
    neg_entropy = n * float(np.sum(b / total * (digamma(b + 1.0) - digamma(total + 1.0))))
    log_mix = log_multiplicity(counts) + log_beta(counts + b) - log_beta(b)
    return neg_entropy - float(np.sum(np.exp(log_mix) * log_q))
