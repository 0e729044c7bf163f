"""A golden corpus of the theta layer: every value its entry points return, pinned by ``float.hex``.

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
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
import scipy.special  # loaded, as in a test process, so gammaln and xlogy take scipy's route (the ports' bits)

from alphanml import (
    AlphaNML,
    DirichletParams,
    InfeasibleModelError,
    LuckinessAlphaNML,
    LuckinessNML,
    Mixture,
    NML,
    NumericError,
    RegretReport,
    UnsupportedError,
    alpha_regret,
    average_luckiness_regret,
    average_regret,
    cli,
    kt,
    log_joint,
    luckiness_alpha_regret,
    luckiness_alpha_regret_supform,
    renyi_divergence_vs_predictor,
    sibson_mi_alpha,
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
        return " ".join([result.kind, result.value_nats.hex(), *(float(t).hex() for t in result.maximizer.theta)])
    if isinstance(result, tuple):  # a CLI run: exit code, stdout, stderr
        return json.dumps(result)
    return float(result).hex()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _params(rng: random.Random, m: int, lo: float = 0.2, hi: float = 3.0) -> tuple[float, ...]:
    return tuple(round(rng.uniform(lo, hi), 3) for _ in range(m))


def _predictor(rng: random.Random, m: int) -> tuple[str, object]:
    """(label, predictor): one of the five kinds, or a callable ruling out the classes with c_0 = r."""
    kind = rng.choice(("kt", "mixture", "anml", "nml", "lnml", "lanml", "ruled_out"))
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
    if kind == "lanml":
        order, b = rng.choice(ORDERS[2:6]), _params(rng, m, 1.0)
        return f"LuckinessAlphaNML({order!r}, {b})", LuckinessAlphaNML(order, DirichletParams(b))
    label, spec = _predictor(rng, m)
    while label.startswith("ruled_out"):
        label, spec = _predictor(rng, m)
    r = rng.randint(0, 2)

    def joint(cv):
        return -math.inf if cv.counts[0] == r else log_joint(spec, cv)

    return f"ruled_out(c0={r}, {label})", joint


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


def entries() -> list[tuple[str, Callable[[], object]]]:
    return library_entries() + cli_entries()


def lines() -> list[str]:
    """Every entry as ``key<TAB>outcome``, in order; a callable that rules out classes meets inf - inf, silenced."""
    with np.errstate(all="ignore"):
        return [f"{key}\t{outcome(call)}" for key, call in entries()]


def main() -> None:
    CORPUS.write_text("\n".join(header() + lines()) + "\n")


if __name__ == "__main__":
    main()
