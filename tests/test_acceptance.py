"""Acceptance suite.

Each test is one acceptance criterion, checked at its stated tolerance and
runtime budget, and prints exactly one status line:

    [criterion NN] PASS|FAIL - short-name (elapsed)

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from alphanml import (
    AlphaNML,
    CountVector,
    DirichletParams,
    LuckinessAlphaNML,
    LuckinessNML,
    Mixture,
    alpha_regret,
    asymptotic_min_alpha_regret,
    asymptotic_rmax,
    average_luckiness_regret,
    average_regret,
    brute_sequence_sum,
    conditional_distribution,
    count_vectors,
    figure1_table,
    kt,
    infinity_split_check,
    alpha_split_check,
    log_dirichlet_alpha_integral,
    log_joint,
    log_normalizer,
    luckiness_alpha_regret,
    predictor_kl,
    sequence_counts,
    sequential_mixture_log_prob,
    sibson_mi_alpha,
    sibson_mi_infinity,
    tilted_params,
    w_alpha_closed,
    w_alpha_direct,
    worst_case_regret,
)
from alphanml import cli

J2 = DirichletParams.jeffreys(2)


def sequence_max_likelihood_log_prob(sequence, m: int) -> float:
    """ln sup over theta of p_theta(sequence), from direct counting: criterion 7's brute-force oracle."""
    counts = sequence_counts(sequence, m)
    n = len(sequence)
    out = 0.0
    for c in counts:
        if c > 0:
            out += c * math.log(c / n)
    return out


def _elapsed(started: float) -> float:
    return time.perf_counter() - started


def _report(number: int, name: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} - {name} ({_elapsed(started):.1f}s)")


def test_criterion_01_normalizer_matches_sequence_oracle():
    """Type-class normalizers equal brute sums over all m^n sequences.

    m in {2, 3}, every n up to 8, alpha in {1, 2, 3, 2.5}, Jeffreys and
    uniform parameters; relative 1e-9 (absolute floor 1e-12); under 30 s.
    """
    started = time.perf_counter()
    failures = []
    for m in (2, 3):
        priors = (DirichletParams.jeffreys(m), DirichletParams.uniform(m))
        for n in range(1, 9):
            for alpha in (1.0, 2.0, 3.0, 2.5):
                for prior in priors:
                    spec = AlphaNML(alpha, prior)
                    fast = log_normalizer(spec, n, m)

                    def term(seq, alpha=alpha, prior=prior, m=m):
                        cv = CountVector(sequence_counts(seq, m))
                        return log_dirichlet_alpha_integral(cv, alpha, prior) / alpha

                    oracle = brute_sequence_sum(n, m, term)
                    if not math.isclose(fast, oracle, rel_tol=1e-9, abs_tol=1e-12):
                        failures.append((m, n, alpha, prior.a, fast, oracle))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    _report(1, "normalizer-vs-sequence-oracle", ok, started)
    assert ok, f"failures={failures!r} elapsed={elapsed:.1f}s"


def test_criterion_02_radius_order_infinity_small_cases():
    """ln of the normalizing sum is ln(5/2) at n=m=2 and ln(9/2) at n=2, m=3.

    Absolute tolerance 1e-12.
    """
    started = time.perf_counter()
    d1 = abs(sibson_mi_infinity(2, 2) - math.log(2.5))
    d2 = abs(sibson_mi_infinity(2, 3) - math.log(4.5))
    ok = d1 <= 1e-12 and d2 <= 1e-12
    _report(2, "radius-order-infinity-small-cases", ok, started)
    assert ok, (d1, d2)


def test_criterion_03_worst_case_splits_into_radius_plus_divergence():
    """Worst case = log normalizing sum + flat-top divergence from the ML joint.

    Predictors: Jeffreys mixture and alpha in {2, 3}; m in {2, 3}, n in 1..8;
    absolute tolerance 1e-10.
    """
    started = time.perf_counter()
    worst = 0.0
    for m in (2, 3):
        J = DirichletParams.jeffreys(m)
        for spec in (Mixture(J), AlphaNML(2.0, J), AlphaNML(3.0, J)):
            for n in range(1, 9):
                lhs, rhs = infinity_split_check(spec, n, m)
                worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10 and _elapsed(started) < 10.0
    _report(3, "worst-case-split-infinity", ok, started)
    assert ok, worst


def test_criterion_04_worst_case_splits_at_order_alpha():
    """Worst case = ((alpha-1)/alpha) * radius + remainder.

    alpha in {2, 2.5, 5}, m in {2, 3}, n in 1..8; absolute tolerance 1e-10.
    """
    started = time.perf_counter()
    worst = 0.0
    for m in (2, 3):
        J = DirichletParams.jeffreys(m)
        for alpha in (2.0, 2.5, 5.0):
            for n in range(1, 9):
                lhs, rhs = alpha_split_check(alpha, n, m, J)
                worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10 and _elapsed(started) < 10.0
    _report(4, "worst-case-split-alpha", ok, started)
    assert ok, worst


def test_criterion_05_remainder_closed_form():
    """The gamma-ratio closed form equals the direct count-vector maximum.

    Every n up to 50, m in {2, 3, 4}, alpha in {1, 2, 5}; 1e-10. The m = 3
    cases pin down the log-gamma constant in the closed form.
    """
    started = time.perf_counter()
    worst = 0.0
    for m in (2, 3, 4):
        J = DirichletParams.jeffreys(m)
        for n in range(1, 51):
            for alpha in (1.0, 2.0, 5.0):
                direct = w_alpha_direct(n, m, alpha, J).value
                closed = w_alpha_closed(n, m, alpha)
                worst = max(worst, abs(direct - closed))
    ok = worst <= 1e-10 and _elapsed(started) < 10.0
    _report(5, "remainder-closed-form", ok, started)
    assert ok, worst


def test_criterion_06_conditionals_consistent_with_joints():
    """Next-symbol probabilities are normalized one-step-extended joints.

    alpha in {1, 2, 3}, m in {2, 3}, every past of length up to 7 (so all
    evaluation horizons up to 8); absolute tolerance 1e-12. The alpha = 2
    Jeffreys weights also match sqrt((c_k + 1/4)(c_k + 3/4)) up to
    normalization.
    """
    started = time.perf_counter()
    worst = 0.0
    for m, max_past in ((2, 7), (3, 7)):
        J = DirichletParams.jeffreys(m)
        for alpha in (1.0, 2.0, 3.0):
            spec = AlphaNML(alpha, J)
            for n_past in range(0, max_past + 1):
                for row in count_vectors(n_past, m).tolist():
                    past = CountVector(tuple(row))
                    probs = conditional_distribution(spec, past)
                    lead = np.array(
                        [log_joint(spec, past.with_symbol(k)) for k in range(1, m + 1)]
                    )
                    ref = np.exp(lead - np.logaddexp.reduce(lead))
                    worst = max(worst, float(np.max(np.abs(probs - ref))))
                    if alpha == 2.0:
                        c = np.array(past.counts, dtype=float)
                        w = np.sqrt((c + 0.25) * (c + 0.75))
                        worst = max(worst, float(np.max(np.abs(probs - w / w.sum()))))
    ok = worst <= 1e-12 and _elapsed(started) < 5.0
    _report(6, "conditionals-consistency", ok, started)
    assert ok, worst


def test_criterion_07_comparison_table_shape_and_oracle():
    """Worst-case increase over the minimax baseline, n in {10, 50, 100}.

    All percentages positive, strictly decreasing in alpha = 1..10 for each
    n, and (slowly) decreasing in n for each alpha; the n = 10, alpha = 1
    entry matches a brute per-sequence oracle to 1e-9.
    """
    started = time.perf_counter()
    alphas = [float(a) for a in range(1, 11)]
    rows = figure1_table([10, 50, 100], alphas)
    ok = all(r["percent_increase"] > 0 for r in rows)
    for n in (10, 50, 100):
        percents = [r["percent_increase"] for r in rows if r["n"] == n]
        ok = ok and all(a > b for a, b in zip(percents, percents[1:]))
    for alpha in alphas:
        by_n = [r["percent_increase"] for r in rows if r["alpha"] == alpha]
        ok = ok and all(a > b for a, b in zip(by_n, by_n[1:]))

    worst_ratio = -math.inf
    for seq in itertools.product((1, 2), repeat=10):
        gap = sequence_max_likelihood_log_prob(seq, 2) - sequential_mixture_log_prob(
            seq, 2, (0.5, 0.5)
        )
        worst_ratio = max(worst_ratio, gap)
    nml_regret = brute_sequence_sum(10, 2, lambda seq: sequence_max_likelihood_log_prob(seq, 2))
    brute_percent = 100.0 * (worst_ratio / nml_regret - 1.0)
    table_percent = next(r["percent_increase"] for r in rows if r["n"] == 10 and r["alpha"] == 1.0)
    ok = ok and abs(brute_percent - table_percent) <= 1e-9 and _elapsed(started) < 60.0
    _report(7, "comparison-table-shape-and-oracle", ok, started)
    assert ok, (brute_percent, table_percent)


def test_criterion_08_asymptotes_track_finite_values():
    """Finite-size gaps to the large-n formulas shrink over n in {100, 400, 1600}.

    m = 2. Worst-case gaps (alpha 1 and 2) end below 0.02 nats; the order-2
    radius gap ends below 0.05 nats. Budget 120 s.
    """
    started = time.perf_counter()
    ns = (100, 400, 1600)
    gaps_a1 = [worst_case_regret(kt(2), n, 2).value_nats - asymptotic_rmax(n, 2, 1.0) for n in ns]
    gaps_a2 = [
        worst_case_regret(AlphaNML(2.0, J2), n, 2).value_nats - asymptotic_rmax(n, 2, 2.0)
        for n in ns
    ]
    gaps_i2 = [
        sibson_mi_alpha(n, 2, 2.0, J2) - asymptotic_min_alpha_regret(n, 2, 2.0) for n in ns
    ]
    elapsed = time.perf_counter() - started
    ok = (
        all(a > b for a, b in zip(gaps_a1, gaps_a1[1:]))
        and all(a > b for a, b in zip(gaps_a2, gaps_a2[1:]))
        and all(a > b for a, b in zip(gaps_i2, gaps_i2[1:]))
        and abs(gaps_a1[-1]) < 0.02
        and abs(gaps_a2[-1]) < 0.02
        and abs(gaps_i2[-1]) < 0.05
        and elapsed < 120.0
    )
    _report(8, "asymptote-tracking", ok, started)
    assert ok, (gaps_a1, gaps_a2, gaps_i2, elapsed)


def test_criterion_09_radius_lower_bounds_matching_regret():
    """Order-2 regret of the order-2 family member is at least the radius.

    Parameters Jeffreys, uniform and (2, 2); n in 1..6; slack 1e-9.
    """
    started = time.perf_counter()
    margin = math.inf
    for a in (J2, DirichletParams.uniform(2), DirichletParams((2.0, 2.0))):
        for n in range(1, 7):
            val = alpha_regret(AlphaNML(2.0, a), n, 2, 2.0).value_nats
            margin = min(margin, val - sibson_mi_alpha(n, 2, 2.0, a))
    ok = margin >= -1e-9 and _elapsed(started) < 60.0
    _report(9, "radius-lower-bound", ok, started)
    assert ok, margin


def test_criterion_10_weighted_average_regret_decomposes(make_exchangeable):
    """Weighted average regret of any joint splits through the matching mixture.

    value(q) = value(mixture) + KL(mixture, q) within 1e-7 for 20 random
    exchangeable joints across n in {2, 4}, with unit and (2, 2) weights.
    """
    started = time.perf_counter()
    worst = 0.0
    for params in (DirichletParams.uniform(2), DirichletParams((2.0, 2.0))):
        mix = Mixture(params)
        for n in (2, 4):
            base = average_luckiness_regret(mix, params, n, 2)
            for _ in range(5):
                q = make_exchangeable(n, 2)
                total = average_luckiness_regret(q, params, n, 2)
                split = base + predictor_kl(mix, q, n, 2)
                worst = max(worst, abs(total - split))
    ok = worst < 1e-7 and _elapsed(started) < 60.0
    _report(10, "weighted-average-decomposition", ok, started)
    assert ok, worst


def test_criterion_11_tilted_identity_and_minimality():
    """The weighted order-alpha regret of the matching family member equals
    the radius under the tilted parameters, and no competitor does better.

    alpha = 2, weights (2, 2) and (3, 2), n in 1..4; identity within 1e-6,
    minimality slack 1e-9.
    """
    started = time.perf_counter()
    worst = 0.0
    min_margin = math.inf
    for b in (DirichletParams((2.0, 2.0)), DirichletParams((3.0, 2.0))):
        for n in range(1, 5):
            spec = LuckinessAlphaNML(2.0, b)
            lhs = luckiness_alpha_regret(spec, b, n, 2.0, 2)
            rhs = sibson_mi_alpha(n, 2, 2.0, tilted_params(2.0, b))
            worst = max(worst, abs(lhs - rhs))
            for other in (Mixture(b), LuckinessNML(b)):
                min_margin = min(
                    min_margin, luckiness_alpha_regret(other, b, n, 2.0, 2) - lhs
                )
    ok = worst < 1e-6 and min_margin >= -1e-9 and _elapsed(started) < 120.0
    _report(11, "tilted-identity-and-minimality", ok, started)
    assert ok, (worst, min_margin)


def test_criterion_12_interpolation_endpoints():
    """Order-alpha regret meets its endpoints.

    At alpha = 1 + 1e-6 it is within 1e-4 of the average regret; at
    alpha = 1e4 within 1e-3 of the worst case. Predictors: Jeffreys mixture
    and the order-2 family member; every n up to 5, m = 2.
    """
    started = time.perf_counter()
    worst_low = 0.0
    worst_high = 0.0
    for spec in (Mixture(J2), AlphaNML(2.0, J2)):
        for n in range(1, 6):
            low = alpha_regret(spec, n, 2, 1.0 + 1e-6).value_nats
            avg = average_regret(spec, n, 2).value_nats
            worst_low = max(worst_low, abs(low - avg))
            high = alpha_regret(spec, n, 2, 1e4).value_nats
            wc = worst_case_regret(spec, n, 2).value_nats
            worst_high = max(worst_high, abs(high - wc))
    ok = worst_low <= 1e-4 and worst_high <= 1e-3 and _elapsed(started) < 60.0
    _report(12, "interpolation-endpoints", ok, started)
    assert ok, (worst_low, worst_high)


def test_criterion_13_thread_count_byte_determinism(tmp_path):
    """The comparison-table command writes byte-identical files for any
    thread count (n-list 10,50; threads 1 vs 8)."""
    started = time.perf_counter()
    p1 = tmp_path / "threads1.csv"
    p8 = tmp_path / "threads8.csv"
    rc1 = cli.main(["figure1", "--n-list", "10,50", "--out", str(p1), "--threads", "1"])
    rc8 = cli.main(["figure1", "--n-list", "10,50", "--out", str(p8), "--threads", "8"])
    ok = rc1 == 0 and rc8 == 0 and p1.read_bytes() == p8.read_bytes() and _elapsed(started) < 30.0
    _report(13, "thread-count-byte-determinism", ok, started)
    assert ok
