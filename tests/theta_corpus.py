"""A golden corpus of the theta, scan and CLI layers: every value their entry points return, pinned by ``float.hex``.

Run ``PYTHONPATH=src python tests/theta_corpus.py`` to write ``tests/theta_corpus.txt``;
``tests/test_theta_corpus.py`` replays it in process. A change that keeps every number leaves the
file byte-identical, and regenerating it must then reproduce it; a change that moves a number
regenerates it in the same commit, and the diff shows every moved line.

Library entries cover ``alpha_regret`` and ``average_regret`` at m = 2 and 3 with their maximizers,
the supremum form ``luckiness_alpha_regret_supform``, ``renyi_divergence_vs_predictor`` at
m = 2..4 (zero coordinates and vertices included), the order-one radius ``sibson_mi_alpha(alpha=1)``,
and the average and tilted luckiness regrets, over the five predictor kinds and a callable that
rules out classes, at orders from 1 to 1e6. The draws are seeded and include n = 0 and 1. A call
that raises records its exception type and message. CLI entries run ``regret --kind average|alpha``
at m = 2 and 3 and ``oracle --check theorem5`` through ``cli.main`` in process, and record the exit
code, stdout and stderr.

The scan layers follow, with valid counts only: ``log_normalizer`` and ``log_joints`` for the five
kinds at m = 2..5 (n = 0 and 1 included, and scans above 512 terms), ``conditional_distribution`` on
its product, Gamma-ratio, NML and longer-horizon routes, ``cumulative_log_loss`` at the default and a
longer horizon, ``worst_case_regret`` and ``worst_case_luckiness_regret`` with their maximizing
counts, ``w_alpha_direct``, ``w_alpha_closed``, both split checks, ``predictor_kl``,
``sibson_mi_alpha`` at alpha > 1, the asymptotes, ``figure1_table``, ``log_multiplicities``,
``count_vector_ranks``, ``log_numerators`` at m >= 8, and the class and lattice budgets' messages.
Then more CLI runs: every README example, perfbench's ``cli`` argv kinds at 10 draws, every scan
``oracle --check``, ``--format json``, ``--base bits``, ``figure1 --out`` (with the written file's
text) and exits 2 to 5, among them a ``--prior`` that theorem1 or a predictor without one refuses, and
an empty ``--prior``.
New entries go after the last line, so no recorded line changes.

The bits rest on the C library's log and pow, numpy's SIMD ``exp`` and its pairwise sums, so the
header records the numpy and scipy versions and the machine the corpus was written on.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import platform
import random
import shlex
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
import scipy.special  # loaded, as in a test process, so gammaln and xlogy take scipy's route (the ports' bits)

from alphanml import (
    AlphaNML,
    CountVector,
    DirichletParams,
    InfeasibleModelError,
    LuckinessAlphaNML,
    LuckinessNML,
    Mixture,
    NML,
    NumericError,
    PredictorSpec,
    RegretReport,
    SimplexPoint,
    UnsupportedError,
    alpha_regret,
    alpha_split_check,
    asymptotic_min_alpha_regret,
    asymptotic_rmax,
    average_luckiness_regret,
    average_regret,
    cli,
    conditional_distribution,
    count_vector_ranks,
    count_vectors,
    cumulative_log_loss,
    figure1_table,
    infinity_split_check,
    kt,
    log_joint,
    log_joints,
    log_multiplicities,
    log_normalizer,
    log_numerators,
    luckiness_alpha_regret,
    luckiness_alpha_regret_supform,
    predictor_kl,
    renyi_divergence_vs_predictor,
    sibson_mi_alpha,
    w_alpha_closed,
    w_alpha_direct,
    worst_case_luckiness_regret,
    worst_case_regret,
)

CORPUS = Path(__file__).with_name("theta_corpus.txt")
SEED = 20261020
ORDERS = (1.0, 1.0 + 2**-20, 1.5, 2.0, 3.7, 12.0, 1e3, 1e6)
RAISED = (NumericError, UnsupportedError, InfeasibleModelError, ValueError)


def header() -> list[str]:
    return [
        f"# numpy {np.__version__} scipy {scipy.__version__} machine {platform.machine()}",
        "# one entry per line: call <TAB> outcome; regenerate with: PYTHONPATH=src python tests/theta_corpus.py",
    ]


def outcome(call: Callable[[], object]) -> str:
    """A call's result as text: floats by ``float.hex``, a report with its kind and maximizer, or what it raised."""
    try:
        result = call()
    except RAISED as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, RegretReport):
        at = result.maximizer
        where = [float(t).hex() for t in at.theta] if isinstance(at, SimplexPoint) else [str(c) for c in at.counts]
        return " ".join([result.kind, result.value_nats.hex(), *where])
    if isinstance(result, tuple):  # a CLI run: exit code, stdout, stderr (and a written file's text)
        return json.dumps(result)
    if isinstance(result, str):  # a call that formats its own result, by ``hexes``
        return result
    return float(result).hex()


def hexes(values) -> str:
    """Floats by ``float.hex`` and integers as written, space-separated."""
    return " ".join(str(v) if isinstance(v, int) else float(v).hex() for v in np.asarray(values).ravel().tolist())


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _params(rng: random.Random, m: int, lo: float = 0.2, hi: float = 3.0) -> tuple[float, ...]:
    return tuple(round(rng.uniform(lo, hi), 3) for _ in range(m))


KINDS = ("kt", "mixture", "anml", "nml", "lnml", "lanml")  # the five kinds, the mixture also as KT


def _predictor(rng: random.Random, m: int) -> tuple[str, object]:
    """(label, predictor): one of the five kinds, or a callable ruling out the classes with c_0 = r."""
    kind = rng.choice(KINDS + ("ruled_out",))
    if kind != "ruled_out":
        return _spec(rng, m, kind)
    label, spec = _predictor(rng, m)
    while label.startswith("ruled_out"):
        label, spec = _predictor(rng, m)
    r = rng.randint(0, 2)

    def joint(cv):
        return -math.inf if cv.counts[0] == r else log_joint(spec, cv)

    return f"ruled_out(c0={r}, {label})", joint


def _spec(rng: random.Random, m: int, kind: str) -> tuple[str, PredictorSpec]:
    """(label, spec) of one of ``KINDS``, its parameters drawn from rng."""
    if kind == "kt":
        return f"kt({m})", kt(m)
    if kind == "mixture":
        a = _params(rng, m)
        return f"Mixture({a})", Mixture(DirichletParams(a))
    if kind == "anml":
        order, a = rng.choice(ORDERS[1:6]), _params(rng, m)
        return f"AlphaNML({order!r}, {a})", AlphaNML(order, DirichletParams(a))
    if kind == "nml":
        return "NML()", NML()
    if kind == "lnml":
        b = _params(rng, m, 1.0)
        return f"LuckinessNML({b})", LuckinessNML(DirichletParams(b))
    order, b = rng.choice(ORDERS[2:6]), _params(rng, m, 1.0)
    return f"LuckinessAlphaNML({order!r}, {b})", LuckinessAlphaNML(order, DirichletParams(b))


def _theta(rng: random.Random, m: int) -> tuple[float, ...]:
    """A simplex point: a vertex, or coordinates with some zeros, normalized."""
    if rng.random() < 0.2:
        k = rng.randrange(m)
        return tuple(1.0 if i == k else 0.0 for i in range(m))
    while True:
        raw = [0.0 if rng.random() < 0.25 else rng.random() for _ in range(m)]
        total = math.fsum(raw)
        if total > 0.0:
            return tuple(x / total for x in raw)


def _horizons(rng: random.Random, count: int, top: int) -> list[int]:
    return [0, 1] + [rng.randint(2, top) for _ in range(count - 2)]


def library_entries() -> list[tuple[str, Callable[[], object]]]:
    rng = random.Random(SEED)
    entries: list[tuple[str, Callable[[], object]]] = []

    def add(key: str, call: Callable[[], object]) -> None:
        entries.append((key, call))

    for m, count, top in ((2, 80, 60), (3, 14, 9)):
        for n in _horizons(rng, count, top):
            label, predictor = _predictor(rng, m)
            alpha = rng.choice(ORDERS)
            if alpha == 1.0:
                add(f"average_regret({label}, n={n}, m={m})", lambda p=predictor, n=n, m=m: average_regret(p, n, m))
            else:
                add(
                    f"alpha_regret({label}, n={n}, m={m}, alpha={alpha!r})",
                    lambda p=predictor, n=n, m=m, a=alpha: alpha_regret(p, n, m, a),
                )

    for m, count, top in ((2, 30, 40), (3, 6, 8)):
        for n in _horizons(rng, count, top):
            label, predictor = _predictor(rng, m)
            b = _params(rng, m, 0.6)
            alpha = rng.choice(ORDERS)
            add(
                f"luckiness_alpha_regret_supform({label}, b={b}, n={n}, m={m}, alpha={alpha!r})",
                lambda p=predictor, b=b, n=n, m=m, a=alpha: luckiness_alpha_regret_supform(
                    p, DirichletParams(b), n, m, a
                ),
            )

    for m, count, top in ((2, 100, 30), (3, 100, 12), (4, 60, 6)):
        for n in _horizons(rng, count, top):
            label, predictor = _predictor(rng, m)
            theta, alpha = _theta(rng, m), rng.choice(ORDERS)
            add(
                f"renyi_divergence_vs_predictor({theta}, {label}, n={n}, alpha={alpha!r})",
                lambda t=theta, p=predictor, n=n, a=alpha: renyi_divergence_vs_predictor(t, p, n, a),
            )

    for n in _horizons(rng, 20, 40):
        a = _params(rng, 2)
        add(
            f"sibson_mi_alpha(n={n}, m=2, alpha=1.0, a={a})",
            lambda n=n, a=a: sibson_mi_alpha(n, 2, 1.0, DirichletParams(a)),
        )

    for n in _horizons(rng, 30, 40):
        label, predictor = _predictor(rng, 2)
        b = _params(rng, 2)
        add(
            f"average_luckiness_regret({label}, b={b}, n={n})",
            lambda p=predictor, b=b, n=n: average_luckiness_regret(p, DirichletParams(b), n),
        )

    for n in _horizons(rng, 40, 40):
        label, predictor = _predictor(rng, 2)
        b, alpha = _params(rng, 2, 0.95), rng.choice(ORDERS[2:])
        add(
            f"luckiness_alpha_regret({label}, b={b}, n={n}, alpha={alpha!r})",
            lambda p=predictor, b=b, n=n, a=alpha: luckiness_alpha_regret(p, DirichletParams(b), n, a),
        )
    for n, alpha, b in ((5, 1e6, (2.0, 2.0)), (12, 3.7, (1.3, 2.6)), (0, 2.0, (1.0, 1.0))):  # theorem 5's left side
        add(
            f"luckiness_alpha_regret(LuckinessAlphaNML({alpha!r}, {b}), b={b}, n={n}, alpha={alpha!r})",
            lambda b=b, n=n, a=alpha: luckiness_alpha_regret(
                LuckinessAlphaNML(a, DirichletParams(b)), DirichletParams(b), n, a
            ),
        )

    # requests that an entry point refuses
    j3, u3, b2 = DirichletParams((0.5,) * 3), DirichletParams((1.0,) * 3), DirichletParams((2.0, 2.0))
    add("sibson_mi_alpha(n=4, m=3, alpha=1.0, a=(0.5, 0.5, 0.5))", lambda: sibson_mi_alpha(4, 3, 1.0, j3))
    add("average_luckiness_regret(kt(3), b=(1.0, 1.0, 1.0), n=4, m=3)",
        lambda: average_luckiness_regret(kt(3), u3, 4, 3))
    add("luckiness_alpha_regret(kt(2), b=(2.0, 2.0), n=3, alpha=1.0)",
        lambda: luckiness_alpha_regret(kt(2), b2, 3, 1.0))
    add("alpha_regret(kt(4), n=3, m=4, alpha=2.0)", lambda: alpha_regret(kt(4), 3, 4, 2.0))
    return entries


def cli_entries() -> list[tuple[str, Callable[[], object]]]:
    rng = random.Random(SEED + 1)
    argvs = []
    for m, horizons in ((2, (0, 1, 7, 40)), (3, (0, 1, 4, 9))):
        for n in horizons:
            for kind in ("average", "alpha"):
                predictor = rng.choice(("kt", "laplace", "nml", "anml", "lanml"))
                argv = ["regret", "--kind", kind, "--n", str(n), "--m", str(m), "--predictor", predictor]
                if kind == "alpha" or predictor in ("anml", "lanml"):
                    argv += ["--alpha", repr(rng.choice((1.5, 2.0, 2.5, 3.7)))]
                if predictor in ("anml", "lanml") and rng.random() < 0.5:
                    argv += ["--prior", ",".join(repr(x) for x in _params(rng, m, 1.0))]
                argvs.append(argv)
    argvs.append("regret --kind alpha --n 6 --m 3 --alpha 2 --predictor kt --format json".split())
    argvs.append("regret --kind average --n 6 --m 2 --predictor kt --base bits".split())
    argvs.append("regret --kind alpha --n 3 --m 4 --alpha 2 --predictor kt".split())
    theorem5 = ((0, "2", None), (1, "1.5", None), (6, "2.5", None), (9, "3.7", "1.2,2.4"), (14, "2", "1.0,1.0"),
                (5, "1e6", None), (4, "2", "1.5,1.5,1.5"))
    for n, alpha, prior in theorem5:
        m = len(prior.split(",")) if prior else 2
        argv = ["oracle", "--check", "theorem5", "--n", str(n), "--m", str(m), "--alpha", alpha]
        argvs.append(argv + (["--prior", prior] if prior else []))
    return [("alphanml " + " ".join(argv), lambda argv=argv: run_cli(argv)) for argv in argvs]


def scan_entries() -> list[tuple[str, Callable[[], object]]]:
    """The scan layers, with valid counts only: normalizers, joints, conditionals, cumulative loss,
    worst-case regrets, the remainder and split checks, the asymptotes and the class arrays."""
    rng = random.Random(SEED + 2)
    entries: list[tuple[str, Callable[[], object]]] = []

    def add(key: str, call: Callable[[], object]) -> None:
        entries.append((key, call))

    for m, top in ((2, 30), (3, 8), (4, 5), (5, 4)):
        for n in _horizons(rng, 4, top):
            for kind in KINDS:
                label, spec = _spec(rng, m, kind)
                add(f"log_normalizer({label}, n={n}, m={m})", lambda s=spec, n=n, m=m: log_normalizer(s, n, m))
                add(f"log_joints({label}, count_vectors({n}, {m}))",
                    lambda s=spec, n=n, m=m: hexes(log_joints(s, count_vectors(n, m))))
    for n, m in ((40, 3), (700, 2)):  # above 512 terms: the exact sum's extraction route
        for kind in KINDS:
            label, spec = _spec(rng, m, kind)
            add(f"log_normalizer({label}, n={n}, m={m})", lambda s=spec, n=n, m=m: log_normalizer(s, n, m))

    for m in (2, 3):
        for kind in KINDS + ("integer", "integer"):
            past = tuple(rng.randint(0, 6) for _ in range(m))
            if kind == "integer":  # an integer order: the one-step product route
                order, a = rng.choice((2.0, 3.0)), _params(rng, m)
                label, spec = f"AlphaNML({order!r}, {a})", AlphaNML(order, DirichletParams(a))
            else:
                label, spec = _spec(rng, m, kind)
            for horizon in (None, sum(past) + rng.randint(2, 5)):
                add(f"conditional_distribution({label}, {past}, horizon={horizon})",
                    lambda s=spec, c=past, h=horizon: hexes(conditional_distribution(s, CountVector(c), h)))

    for m in (2, 3):
        for length in (0, 1, 5, 12):
            sequence = [rng.randint(1, m) for _ in range(length)]
            label, spec = _spec(rng, m, rng.choice(KINDS))
            for horizon in (None, length + rng.randint(1, 8)):
                add(f"cumulative_log_loss({label}, {sequence}, m={m}, horizon={horizon})",
                    lambda s=spec, q=sequence, m=m, h=horizon: cumulative_log_loss(s, q, m, horizon=h))

    for m, top in ((2, 40), (3, 10), (4, 5)):
        for n in _horizons(rng, 5, top):
            label, predictor = _predictor(rng, m)
            add(f"worst_case_regret({label}, n={n}, m={m})", lambda p=predictor, n=n, m=m: worst_case_regret(p, n, m))
            label, predictor = _predictor(rng, m)
            b = _params(rng, m, 1.0)
            add(f"worst_case_luckiness_regret({label}, b={b}, n={n}, m={m})",
                lambda p=predictor, b=b, n=n, m=m: worst_case_luckiness_regret(p, DirichletParams(b), n, m))

    for m, top in ((2, 40), (3, 9)):
        for n in _horizons(rng, 5, top):
            alpha, a = rng.choice(ORDERS[1:7]), rng.choice([(0.5,) * m, _params(rng, m)])
            params = DirichletParams(a)
            add(f"w_alpha_direct(n={n}, m={m}, alpha={alpha!r}, a={a})",
                lambda n=n, m=m, al=alpha, p=params: (lambda r: f"{r.value.hex()} {hexes(r.maximizer.counts)}")(
                    w_alpha_direct(n, m, al, p)))
            add(f"w_alpha_closed(n={n}, m={m}, alpha={alpha!r}, a={a})",
                lambda n=n, m=m, al=alpha, p=params: w_alpha_closed(n, m, al, p))
            add(f"alpha_split_check(alpha={alpha!r}, n={n}, m={m}, a={a})",
                lambda n=n, m=m, al=alpha, p=params: hexes(alpha_split_check(al, n, m, p)))
            add(f"sibson_mi_alpha(n={n}, m={m}, alpha={alpha!r}, a={a})",
                lambda n=n, m=m, al=alpha, p=params: sibson_mi_alpha(n, m, al, p))
            label, predictor = _predictor(rng, m)
            add(f"infinity_split_check({label}, n={n}, m={m})",
                lambda p=predictor, n=n, m=m: hexes(infinity_split_check(p, n, m)))
            (p_label, p), (q_label, q) = _spec(rng, m, rng.choice(KINDS)), _predictor(rng, m)
            add(f"predictor_kl({p_label}, {q_label}, n={n}, m={m})",
                lambda p=p, q=q, n=n, m=m: predictor_kl(p, q, n, m))

    for n in (1, 10, 1000):
        for m in (2, 3, 5):
            for alpha in (1.0, 1.5, 2.0, 12.0, math.inf):
                add(f"asymptotic_rmax(n={n}, m={m}, alpha={alpha!r})",
                    lambda n=n, m=m, al=alpha: asymptotic_rmax(n, m, al))
                add(f"asymptotic_min_alpha_regret(n={n}, m={m}, alpha={alpha!r})",
                    lambda n=n, m=m, al=alpha: asymptotic_min_alpha_regret(n, m, al))
    for n_list, alphas, m in (([10, 50], [1.0, 2.0, 3.0], 2), ([1, 7], [1.0, 2.5], 3)):
        add(f"figure1_table({n_list}, {alphas}, m={m})",
            lambda ns=n_list, al=alphas, m=m: hexes([list(row.values()) for row in figure1_table(ns, al, m)]))

    for n, m in ((0, 2), (1, 3), (9, 2), (6, 4), (3, 8), (2, 10)):
        add(f"log_multiplicities(count_vectors({n}, {m}))", lambda n=n, m=m: hexes(log_multiplicities(count_vectors(n, m))))
    for m in (2, 3, 5, 9):
        counts = [[rng.randint(0, 7) for _ in range(m)] for _ in range(6)]
        add(f"count_vector_ranks({counts})", lambda c=counts: hexes(count_vector_ranks(c)))
    for m in (8, 9, 11):  # numpy sums rows of 8 or more pairwise
        for rows in (1, 2, 40):
            counts = [[rng.randint(0, 4) for _ in range(m)] for _ in range(rows)]
            label, spec = _spec(rng, m, rng.choice(KINDS))
            add(f"log_numerators({label}, {counts})", lambda s=spec, c=counts: hexes(log_numerators(s, c)))

    add("log_normalizer(kt(4), n=3000, m=4)", lambda: log_normalizer(kt(4), 3000, 4))  # the class budget
    add("cumulative_log_loss(kt(2), [1, 2], m=2, horizon=16383)",  # the lattice budget
        lambda: cumulative_log_loss(kt(2), [1, 2], 2, horizon=16383))
    return entries


def run_cli_writing(argv: list[str]) -> tuple[int, str, str, str | None]:
    """``run_cli`` with ``{tmp}`` in argv standing for a fresh directory; adds the text of its table.csv, if written."""
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_cli([arg.replace("{tmp}", tmp) for arg in argv])
        written = Path(tmp, "table.csv")
        text = written.read_bytes().decode() if written.exists() else None
    return code, out, err.replace(tmp, "{tmp}"), text


def scan_cli_entries() -> list[tuple[str, Callable[[], object]]]:
    """The README's examples, perfbench's ``cli`` argv kinds, the scan oracles, output formats and exits 2-5."""
    rng = random.Random(SEED + 3)
    argvs = [
        "predict --m 2 --alpha 2 --counts 1,0",
        "regret --kind worst --n 10 --m 2 --predictor kt",
        "regret --kind alpha --alpha 2 --n 3 --m 2 --predictor anml",
        "figure1 --n-list 10,50,100 --alpha-max 10 --out {tmp}/table.csv",
        "asymptotics --m 2 --alpha 2 --n-list 100,400,1600",
        "oracle --check normalizer --n 6 --m 2 --alpha 2.5",
    ]
    for _ in range(10):  # perfbench's cli kinds, their draws made here
        alpha = f"{rng.uniform(1.5, 4.0):.6f}"
        prior = ",".join(f"{rng.uniform(0.3, 2.0):.6f}" for _ in range(2))
        past = sum(rng.random() < 0.5 for _ in range(10))
        counts = f"{past},{10 - past}"
        argvs += [
            f"predict --m 2 --counts {counts} --alpha {alpha}",
            f"predict --m 2 --counts {counts} --alpha {alpha} --horizon 30",
            f"regret --kind worst --n 200 --m 2 --alpha {alpha} --prior {prior}",
            f"regret --kind alpha --n 20 --m 2 --alpha {alpha} --prior {prior}",
            "figure1 --n-list 10,50 --alpha-max 3",
            f"asymptotics --m 2 --alpha {alpha} --n-list 10,100",
            f"oracle --check normalizer --n 10 --m 2 --alpha {alpha} --prior {prior}",
        ]
    for m, n in ((2, 8), (3, 4)):
        for predictor in ("kt", "laplace", "nml", "anml", "lanml"):
            argv = f"regret --kind worst --n {n} --m {m} --predictor {predictor}"
            argv += " --alpha 2.5" if predictor in ("anml", "lanml") else ""
            argvs.append(argv + (" --prior " + ",".join(("1.5", "2", "1.2")[:m]) if predictor == "lanml" else ""))
    argvs += [
        "oracle --check normalizer --n 5 --m 3 --alpha 1.5 --prior 0.7,1.2,2",
        "oracle --check lemma1 --n 12 --m 2",
        "oracle --check lemma1 --n 6 --m 3 --alpha 2.5 --prior 0.7,1.2,2",
        "oracle --check lemma2 --n 12 --m 2 --alpha 3",
        "oracle --check lemma2 --n 5 --m 3 --prior 0.7,1.2,2",
        "oracle --check theorem1 --n 30 --m 2 --alpha 1.5",
        "oracle --check theorem1 --n 7 --m 4",
        "regret --kind worst --n 10 --m 3 --predictor nml --format json",
        "predict --m 3 --counts 2,0,1 --predictor lanml --alpha 1.5 --prior 1.2,2,1.5 --format json",
        "asymptotics --m 3 --alpha 2 --n-list 10,20 --base bits",
        "regret --kind worst --n 25 --m 2 --predictor anml --alpha 3 --base bits",
        "figure1 --n-list 10 --alpha-max 2 --format json --out {tmp}/table.csv",
        "regret --kind alpha --n 3 --m 2 --predictor kt",  # exit 2: no --alpha
        "figure1 --n-list 10 --alpha-max 0",  # exit 2
        "oracle --check theorem5 --n 3 --m 2 --alpha 1",  # exit 2
        "predict --m 2 --counts 1,x --predictor kt",  # exit 2
        "predict --m 2 --counts 1,0 --predictor lanml --alpha 2 --prior jeffreys",  # exit 3: tilt not integrable
        "regret --kind worst --n 3000 --m 4 --predictor kt",  # exit 4: the class budget
        "regret --kind alpha --alpha 2 --n 2000 --m 3 --predictor kt",  # exit 4: the theta budget
        "oracle --check normalizer --n 19 --m 2",  # exit 4: more than 2^18 sequences
        "figure1 --n-list 10 --alpha-max 1 --out {tmp}/missing/table.csv",  # exit 5
        "oracle --check theorem1 --n 5 --m 2 --prior 3,3",  # exit 4: the closed form needs the Jeffreys prior
        "regret --kind worst --n 10 --m 2 --predictor kt --prior 1,1",  # exit 2: kt takes no --prior
        'predict --m 2 --counts 1,0 --predictor kt --prior ""',  # exit 2: an empty --prior does not parse
        'oracle --check theorem1 --n 5 --m 2 --prior ""',  # exit 2, not Jeffreys
    ]
    return [("alphanml " + argv, lambda argv=shlex.split(argv): run_cli_writing(argv)) for argv in argvs]


def entries() -> list[tuple[str, Callable[[], object]]]:
    return library_entries() + cli_entries() + scan_entries() + scan_cli_entries()


def lines() -> list[str]:
    """Every entry as ``key<TAB>outcome``, in order; a callable that rules out classes meets inf - inf, silenced."""
    with np.errstate(all="ignore"):
        return [f"{key}\t{outcome(call)}" for key, call in entries()]


def main() -> None:
    CORPUS.write_text("\n".join(header() + lines()) + "\n")


if __name__ == "__main__":
    main()
