"""Per-symbol tables of the type-class scans against their per-cell references.

``log_multiplicities`` and ``log_numerators`` read per-symbol tables instead
of evaluating every cell; the references below are the per-cell formulas
they replaced, and the tables must agree with them bit for bit. A
worst-case scan hands its classes and numerators to the normalizer on a
cache miss, which must not change any value or maximizer. The backward
pass of ``cumulative_log_loss`` reads each level as a slice of the horizon's
arrays and each prefix at its lex rank; the reference is the pass that
copied the counts and searched them for the prefix at every level.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, xlogy

from alphanml import (
    AlphaNML,
    CountVector,
    DirichletParams,
    LuckinessAlphaNML,
    LuckinessNML,
    Mixture,
    NML,
    cli,
    count_vectors,
    cumulative_log_loss,
    log_joint,
    log_joints,
    log_multiplicities,
    log_normalizer,
    log_numerators,
    tilted_params,
    worst_case_luckiness_regret,
    worst_case_regret,
)
from alphanml import predictors
from alphanml.predictors import DEFAULT_CACHE
from alphanml.numerics import log_multivariate_beta


def _log_binomial_row(r: int) -> np.ndarray:
    """ln C(r, c) for c = 0..r, as cumulative sums of ln((r - j) / (j + 1))."""
    j = np.arange(r, dtype=np.float64)
    return np.concatenate([[0.0], np.cumsum(np.log((r - j) / (j + 1.0)))])


def reference_log_multiplicities(counts: np.ndarray) -> np.ndarray:
    """One binomial row per distinct suffix sum, built in a loop over the sums."""
    counts = np.asarray(counts, dtype=np.int64)
    rest = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]
    keys = np.unique(rest[:, :-1])
    table = np.concatenate([_log_binomial_row(r) for r in keys.tolist()])
    offsets = np.cumsum(keys + 1) - (keys + 1)
    out = np.zeros(counts.shape[0])
    for i in range(counts.shape[1] - 1):
        out += table[offsets[np.searchsorted(keys, rest[:, i])] + counts[:, i]]
    return out


def _log_beta_rows(params: np.ndarray) -> np.ndarray:
    return np.sum(gammaln(params), axis=1) - gammaln(np.sum(params, axis=1))


def _xlogx_rows(x: np.ndarray) -> np.ndarray:
    total = np.sum(x, axis=1)
    return np.sum(xlogy(x, x), axis=1) - xlogy(total, total)


def reference_log_numerators(spec, counts) -> np.ndarray:
    """Every kind's formula evaluated on every (class, symbol) cell."""
    cs = np.asarray(counts, dtype=np.float64)
    if isinstance(spec, (Mixture, AlphaNML)):
        alpha = getattr(spec, "alpha", 1.0)
        return (_log_beta_rows(alpha * cs + spec.a.as_array()) - log_multivariate_beta(spec.a.a)) / alpha
    if isinstance(spec, NML):
        return _xlogx_rows(cs)
    if isinstance(spec, LuckinessNML):
        return _xlogx_rows(cs + spec.b.as_array() - 1.0) - log_multivariate_beta(spec.b.a)
    params = tilted_params(spec.alpha, spec.b).as_array()
    return _log_beta_rows(spec.alpha * cs + params) / spec.alpha


def reference_prefix_log_marginals(spec, path: np.ndarray, horizon: int) -> np.ndarray:
    """The backward pass that lowers a copy of the counts and searches it for the prefix at every level."""
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


def _prefix_path(sequence, m: int) -> np.ndarray:
    """(T+1, m) prefix counts of a sequence, from the empty prefix on."""
    steps = np.eye(m, dtype=np.int64)[np.array(sequence, dtype=np.int64) - 1]
    return np.vstack([np.zeros((1, m), dtype=np.int64), np.cumsum(steps, axis=0)])


def _specs(m: int, draw) -> list:
    a = DirichletParams(tuple(draw(st.floats(0.2, 3.0)) for _ in range(m)))
    b = DirichletParams(tuple(draw(st.floats(1.0, 3.0)) for _ in range(m)))
    alpha = draw(st.floats(1.0, 8.0))
    return [Mixture(a), AlphaNML(alpha, a), NML(), LuckinessNML(b), LuckinessAlphaNML(alpha, b)]


@st.composite
def count_arrays(draw, max_total: int = 60, max_rows: int = 40):
    """(K, m) count arrays whose rows have mixed, possibly sparse totals."""
    m = draw(st.integers(2, 5))
    totals = draw(st.lists(st.sampled_from([0, 1, 2, 7, 10, max_total]), min_size=1, max_size=max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array([rng.multinomial(t, rng.dirichlet(np.ones(m))) for t in totals], dtype=np.int64)


class TestMultiplicityTable:
    """One padded table of binomial rows, read through a slot per suffix sum."""

    @given(st.integers(0, 40), st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_sum_loop_on_all_classes(self, n, m):
        if math.comb(n + m - 1, m - 1) > 150_000:
            n = 20
        counts = count_vectors(n, m)
        assert np.array_equal(log_multiplicities(counts), reference_log_multiplicities(counts))

    @given(count_arrays(max_total=50_000, max_rows=12))
    @settings(max_examples=40, deadline=None)
    def test_equals_per_sum_loop_on_sparse_totals(self, counts):
        assert np.array_equal(log_multiplicities(counts), reference_log_multiplicities(counts))

    def test_short_rows_are_not_padded_to_the_longest(self):
        """One long row among many short ones keeps the table near the entries it needs."""
        counts = np.array([[t, 0] for t in range(100)] + [[100_000, 100_000]])
        tracemalloc.start()
        try:
            out = log_multiplicities(counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, reference_log_multiplicities(counts))
        # the rows need about 2e5 floats (1.6 MB); one block padded to the longest row would hold 2e7
        assert peak < 32 * 2**20

    def test_empty_array_gives_empty_result(self):
        out = log_multiplicities(np.zeros((0, 3), dtype=np.int64))
        assert out.shape == (0,)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            log_multiplicities(np.array([[3, -1, 2]]))


class TestNumeratorTables:
    """Per-symbol tables over k = 0..max count, gathered into the cells."""

    @given(count_arrays(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_kind_equals_per_cell_formula(self, counts, data):
        """Arrays on both sides of the K > max count + 1 rule, and single rows."""
        for spec in _specs(counts.shape[1], data.draw):
            ref = reference_log_numerators(spec, counts)
            assert np.array_equal(log_numerators(spec, counts), ref)
            assert np.array_equal(log_numerators(spec, counts[:1]), ref[:1])

    @given(st.integers(0, 30), st.integers(2, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_kind_equals_per_cell_formula_on_all_classes(self, n, m, data):
        counts = count_vectors(n, m)
        for spec in _specs(m, data.draw):
            assert np.array_equal(log_numerators(spec, counts), reference_log_numerators(spec, counts))

    @pytest.mark.parametrize("dtype", [np.float64, np.uint32, np.uint64])
    def test_whole_float_and_unsigned_counts_accepted(self, dtype):
        counts = count_vectors(9, 3)
        assert np.array_equal(log_numerators(NML(), counts.astype(dtype)), log_numerators(NML(), counts))

    @pytest.mark.parametrize("bad", [[[2, -1, 3]], [[1.5, 2.0]], [[math.nan, 1.0]]])
    def test_negative_or_non_whole_counts_rejected(self, bad):
        with pytest.raises(ValueError):
            log_numerators(NML(), bad)

    def test_empty_array_gives_empty_result(self):
        assert log_numerators(NML(), np.zeros((0, 2), dtype=np.int64)).shape == (0,)


class TestPrefixMarginals:
    """Sliced levels and ranked prefixes give the row-search pass bit for bit."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_kind_equals_row_search_pass(self, data):
        m = data.draw(st.integers(2, 5))
        seq = data.draw(st.lists(st.integers(1, m), max_size={2: 30, 3: 16, 4: 10, 5: 8}[m]))
        horizon = len(seq) + data.draw(st.sampled_from([0, 3]))
        path = _prefix_path(seq, m)
        for spec in _specs(m, data.draw):
            ref = reference_prefix_log_marginals(spec, path, horizon)
            assert np.array_equal(predictors._prefix_log_marginals(spec, path, horizon), ref)
            assert cumulative_log_loss(spec, seq, m, horizon=horizon) == math.fsum(ref[:-1] - ref[1:])

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("horizon", [0, 3])
    def test_empty_sequence(self, m, horizon):
        path = _prefix_path([], m)
        for spec in (NML(), Mixture(DirichletParams.jeffreys(m)), AlphaNML(2.5, DirichletParams.jeffreys(m))):
            ref = reference_prefix_log_marginals(spec, path, horizon)
            assert np.array_equal(predictors._prefix_log_marginals(spec, path, horizon), ref)
            assert cumulative_log_loss(spec, [], m, horizon=horizon) == 0.0


class TestLogJointsHorizonCheck:
    def test_several_horizons_message(self):
        with pytest.raises(ValueError, match=r"^count vectors of several horizons \[2, 3, 5\] in one call$"):
            log_joints(NML(), [[1, 2], [2, 0], [0, 5], [1, 2]])

    def test_single_horizon_accepted(self):
        out = log_joints(NML(), [[1, 2], [3, 0]])
        assert out.tolist() == [log_joint(NML(), CountVector((1, 2))), log_joint(NML(), CountVector((3, 0)))]


def _worst_case_specs(m: int) -> list:
    a = DirichletParams(tuple(0.4 + 0.3 * i for i in range(m)))
    b = DirichletParams(tuple(1.2 + 0.5 * i for i in range(m)))
    return [Mixture(a), AlphaNML(2.5, a), NML(), LuckinessNML(b), LuckinessAlphaNML(1.75, b)]


def _report(rep) -> tuple:
    return rep.value_nats, rep.maximizer


class TestWorstCaseScanReuse:
    """A normalizer-cache miss reuses the scan's classes and numerators."""

    @pytest.mark.parametrize("n,m", [(25, 2), (12, 3), (6, 4)])
    def test_same_value_and_maximizer_for_every_cache_state(self, n, m):
        for spec in _worst_case_specs(m):
            DEFAULT_CACHE.clear()
            cold = _report(worst_case_regret(spec, n, m))
            warm = _report(worst_case_regret(spec, n, m))
            DEFAULT_CACHE.clear()
            log_normalizer(spec, n, m)
            from_normalizer = _report(worst_case_regret(spec, n, m))
            DEFAULT_CACHE.clear()
            callable_joint = _report(worst_case_regret(lambda cv, s=spec: log_joint(s, cv), n, m))
            assert cold == warm == from_normalizer == callable_joint

    @pytest.mark.parametrize("n,m", [(25, 2), (12, 3)])
    def test_luckiness_same_value_and_maximizer_for_every_cache_state(self, n, m):
        b = DirichletParams(tuple(1.3 + 0.4 * i for i in range(m)))
        for spec in _worst_case_specs(m):
            DEFAULT_CACHE.clear()
            cold = _report(worst_case_luckiness_regret(spec, b, n, m))
            warm = _report(worst_case_luckiness_regret(spec, b, n, m))
            DEFAULT_CACHE.clear()
            callable_joint = _report(worst_case_luckiness_regret(lambda cv, s=spec: log_joint(s, cv), b, n, m))
            assert cold == warm == callable_joint

    def test_cache_miss_does_not_enumerate_again(self, monkeypatch):
        # the scan enumerates its class table exactly once, and the normalizer's miss reduces that table
        calls = []
        enumerate_classes = predictors.count_vectors
        monkeypatch.setattr(predictors, "count_vectors", lambda *args: calls.append(args) or enumerate_classes(*args))
        DEFAULT_CACHE.clear()
        spec = AlphaNML(3.0, DirichletParams.jeffreys(3))
        worst_case_regret(spec, 20, 3)
        assert len(DEFAULT_CACHE) == 2
        keys = {(predictors._class_table, 20, 3), (predictors._compute_log_normalizer, spec, 20, 3)}
        assert set(DEFAULT_CACHE._values) == keys
        assert calls == [(20, 3)]


# stdout and exit codes of the CLI before the scans read per-symbol tables
CLI_GOLDENS = [
    (
        "regret --kind worst --n 40 --m 3 --predictor anml --alpha 2.5",
        0,
        (
            "n,m,alpha,predictor,kind,value_nats,value_bits,maximizer,asymptotic_nats,gap_nats\n"
            "40,3,2.5,anml,worst_case,4.08786005828,5.89753543392,0;0;40,3.96613832634,0.121721731938\n"
        ),
    ),
    (
        "regret --kind worst --n 30 --m 3 --predictor lanml --alpha 2 --prior 1.5,2,1.25 --format json",
        0,
        (
            "[\n"
            "  {\n"
            '    "n": 30,\n'
            '    "m": 3,\n'
            '    "alpha": 2.0,\n'
            '    "predictor": "lanml",\n'
            '    "kind": "worst_case",\n'
            '    "value_nats": 8.56191277281,\n'
            '    "value_bits": 12.3522290979,\n'
            '    "maximizer": "0;0;30",\n'
            '    "asymptotic_nats": null,\n'
            '    "gap_nats": null\n'
            "  }\n"
            "]\n"
        ),
    ),
    (
        "figure1 --n-list 10,50,100 --alpha-max 4",
        0,
        (
            "n,alpha,regret_nats,nml_regret_nats,percent_increase\n"
            "# alpha=1 corresponds to the KT estimator\n"
            "10,1,1.7361522966,1.53906173033,12.8058909129\n"
            "10,2,1.63797970536,1.53906173033,6.4271609826\n"
            "10,3,1.60504062004,1.53906173033,4.28695538412\n"
            "10,4,1.58854977782,1.53906173033,3.21546865298\n"
            "50,1,2.53087640398,2.25582121365,12.1931289882\n"
            "50,2,2.39316930155,2.25582121365,6.08860698124\n"
            "50,3,2.34732059379,2.25582121365,4.0561450343\n"
            "50,4,2.32441634764,2.25582121365,3.04080543127\n"
            "100,1,2.87620003071,2.58097113823,11.4386746953\n"
            "100,2,2.72837766003,2.58097113823,5.71128129313\n"
            "100,3,2.67917654714,2.58097113823,3.80497896536\n"
            "100,4,2.65459713143,2.58097113823,2.85264690153\n"
        ),
    ),
    (
        "oracle --check normalizer --n 8 --m 3 --alpha 2 --prior jeffreys",
        0,
        (
            "check,n,m,alpha,fast_value,oracle_value,abs_diff,tolerance,status\n"
            "normalizer,8,3,2,0.922448978251,0.922448978251,0,1e-09,pass\n"
        ),
    ),
    (
        "predict --m 3 --counts 2,0,1 --predictor nml --horizon 10",
        0,
        (
            "symbol,probability\n"
            "1,0.569816803547\n"
            "2,0.0908808261476\n"
            "3,0.339302370306\n"
        ),
    ),
    (
        "asymptotics --m 3 --alpha 2 --n-list 10,40 --base bits",
        0,
        (
            "n,m,alpha,exact_nats,exact_bits,asymptotic_bits,gap_bits\n"
            "10,3,2,2.86601027819,4.13477881549,3.82192809489,0.312850720599\n"
            "40,3,2,4.13895613915,5.97125149641,5.82192809489,0.149323401524\n"
        ),
    ),
    (
        "regret --kind alpha --n 20 --m 2 --alpha 3 --predictor kt",
        0,
        (
            "n,m,alpha,predictor,kind,value_nats,value_bits,maximizer,asymptotic_nats,gap_nats\n"
            "20,2,3,kt,alpha,2.07648042915,2.99572801763,0;1,,\n"
        ),
    ),
    # the predictor, alpha and asymptote columns, which the CLI reads from the predictor name it parsed
    (
        "regret --kind worst --n 20 --m 2 --predictor kt",
        0,
        (
            "n,m,alpha,predictor,kind,value_nats,value_bits,maximizer,asymptotic_nats,gap_nats\n"
            "20,2,1,kt,worst_case,2.07648042915,2.99572801763,0;20,2.0702310797,0.00624934944569\n"
        ),
    ),
    (
        "regret --kind worst --n 20 --m 3 --predictor laplace",
        0,
        (
            "n,m,alpha,predictor,kind,value_nats,value_bits,maximizer,asymptotic_nats,gap_nats\n"
            "20,3,1,laplace,worst_case,5.44241771052,7.85174904142,0;0;20,,\n"
        ),
    ),
    (
        "regret --kind worst --n 20 --m 3 --predictor nml",
        0,
        (
            "n,m,alpha,predictor,kind,value_nats,value_bits,maximizer,asymptotic_nats,gap_nats\n"
            "20,3,inf,nml,worst_case,3.26932497734,4.71663893186,0;0;20,2.99573227355,0.273592703782\n"
        ),
    ),
    (
        "regret --kind worst --n 20 --m 3 --predictor nml --format json --base bits",
        0,
        (
            "[\n"
            "  {\n"
            '    "n": 20,\n'
            '    "m": 3,\n'
            '    "alpha": Infinity,\n'
            '    "predictor": "nml",\n'
            '    "kind": "worst_case",\n'
            '    "value_nats": 3.26932497734,\n'
            '    "value_bits": 4.71663893186,\n'
            '    "maximizer": "0;0;20",\n'
            '    "asymptotic_bits": 4.32192809489,\n'
            '    "gap_bits": 0.39471083697\n'
            "  }\n"
            "]\n"
        ),
    ),
    (
        "regret --kind worst --n 20 --m 2 --alpha 2",
        0,
        (
            "n,m,alpha,predictor,kind,value_nats,value_bits,maximizer,asymptotic_nats,gap_nats\n"
            "20,2,2,anml,worst_case,1.95802172972,2.82482823942,0;20,1.89694428456,0.0610774451566\n"
        ),
    ),
    (
        "regret --kind worst --n 20 --m 2 --predictor anml --alpha 1 --prior jeffreys",
        0,
        (
            "n,m,alpha,predictor,kind,value_nats,value_bits,maximizer,asymptotic_nats,gap_nats\n"
            "20,2,1,anml,worst_case,2.07648042915,2.99572801763,0;20,2.0702310797,0.00624934944569\n"
        ),
    ),
    (
        "regret --kind average --n 20 --m 2 --predictor nml",
        0,
        (
            "n,m,alpha,predictor,kind,value_nats,value_bits,maximizer,asymptotic_nats,gap_nats\n"
            "20,2,1,nml,average,1.83953079488,2.65388195533,0;1,,\n"
        ),
    ),
    (
        "predict --m 3 --counts 2,0,1 --predictor anml --alpha 3",
        0,
        (
            "symbol,probability\n"
            "1,0.568538940039\n"
            "2,0.094036428063\n"
            "3,0.337424631898\n"
        ),
    ),
    (
        "predict --m 2 --counts 3,1 --predictor lanml --alpha 2 --prior 1.5,2",
        0,
        (
            "symbol,probability\n"
            "1,0.607719043941\n"
            "2,0.392280956059\n"
        ),
    ),
]


@pytest.mark.parametrize("argv,code,stdout", CLI_GOLDENS, ids=[case[0] for case in CLI_GOLDENS])
def test_cli_stdout_golden(capsys, argv, code, stdout):
    assert cli.main(argv.split()) == code
    assert capsys.readouterr().out == stdout
