"""The four benchmark workloads: seeded inputs, the measured call, the check.

Each workload is a fixed cycle of op kinds. An op is one call into the
library's public API (or one CLI process); its inputs are drawn from the
run's seed and never change n or m. ``check`` compares a result with an
independent reference and returns a failure message, or None.

The library's functions are reached through module attributes
(``A.log_normalizer``, never a function imported by name), so the calls
made here go through the tracer's wrappers while it is installed.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

import alphanml as A
from alphanml import cli, oracle, predictors, regret

import reference as R

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TIE_REL = getattr(regret, "TIE_REL", 1e-12)  # argmax tie window of worst-case scans
BRUTE_GRID = 1 << 13  # intervals of the fixed dense theta grid for m = 2 maxima (twice the library grid)


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict


@dataclass(frozen=True)
class OpKind:
    name: str
    draw: Callable[[np.random.Generator], dict]
    run: Callable[[dict], object]
    check: Callable[[dict, object], str | None]


def _close(value: float, ref: float, rel: float, what: str) -> str | None:
    if abs(value - ref) <= rel * max(1.0, abs(ref)):
        return None
    return f"{what}: {value!r} != reference {ref!r} (rel {rel:g})"


def _alpha(rng) -> float:
    return float(rng.uniform(1.5, 4.0))


def _dirichlet(rng, m: int, lo: float = 0.3, hi: float = 2.0) -> tuple[float, ...]:
    return tuple(float(x) for x in rng.uniform(lo, hi, m))


def _anml(p: dict):
    return A.AlphaNML(p["alpha"], A.DirichletParams(p["a"]))


def _anml_log_joint(counts: np.ndarray, p: dict) -> np.ndarray:
    num = R.alpha_log_numerator(counts, p["alpha"], p["a"])
    return num - R.log_normalizer(counts, num)


class Workload:
    """A cycle of op kinds; ``ops`` streams seeded inputs in that order.

    ``cycle`` may list a kind twice. Runs measure whole cycles, so the mix is
    the same in every run, and the weights put the median op inside one
    kind's latency band instead of on the edge between two.
    """

    in_process = True

    def __init__(self, name: str, seed: int, kinds: list[OpKind], cycle: list[str] | None = None):
        self.name = name
        self.seed = seed
        self.kinds = {k.name: k for k in kinds}
        self.cycle = cycle or [k.name for k in kinds]

    def ops(self, stream: int) -> Iterator[Op]:
        rng = np.random.default_rng([self.seed, stream])
        for name in itertools.cycle(self.cycle):
            yield Op(name, self.kinds[name].draw(rng))

    def run(self, op: Op):
        return self.kinds[op.kind].run(op.params)

    run_traced = run

    def check(self, op: Op, result) -> str | None:
        return self.kinds[op.kind].check(op.params, result)

    def warm_up(self) -> None:
        """One untimed cycle on inputs of its own stream."""
        for op in itertools.islice(self.ops(0), len(self.cycle)):
            self.run(op)

    def setup_command(self) -> list[str]:
        return [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", self.name,
                "--seed", str(self.seed), "--setup-only"]

    def layer_metrics(self) -> dict[str, float]:
        return {}


# -- scan ----------------------------------------------------------------------


def _check_normalizer(n: int, m: int):
    def check(p: dict, value: float) -> str | None:
        counts = R.compositions(n, m)
        ref = R.log_normalizer(counts, R.alpha_log_numerator(counts, p["alpha"], p["a"]))
        return _close(value, ref, 1e-9, "log normalizer")

    return check


def _check_maximum(what: str, value, maximizer, ref_values: np.ndarray, counts: np.ndarray) -> str | None:
    best, idx = R.argmax_lex(ref_values, TIE_REL)
    failure = _close(value, best, 1e-9, what)
    if failure is None and tuple(maximizer) != tuple(int(c) for c in counts[idx]):
        failure = f"{what} maximizer {tuple(maximizer)} != reference {tuple(counts[idx].tolist())}"
    return failure


def _report(rep) -> tuple[float, tuple]:
    return rep.value_nats, tuple(rep.maximizer.counts)


def _check_worst_m2(p: dict, result) -> str | None:
    counts = R.compositions(1500, 2)
    vals = R.log_max_likelihood(counts) - _anml_log_joint(counts, p)
    return _check_maximum("worst-case regret", *result, vals, counts)


def _check_luckiness_worst(p: dict, result) -> str | None:
    counts = R.compositions(60, 3)
    sup = R.log_luckiness_supremum(counts, p["b"])
    vals = sup - (sup - R.log_normalizer(counts, sup))
    return _check_maximum("worst-case luckiness regret", *result, vals, counts)


def scan(seed: int) -> Workload:
    return Workload("scan", seed, [
        OpKind("normalizer_m3",
               lambda rng: {"alpha": _alpha(rng), "a": _dirichlet(rng, 3)},
               lambda p: A.log_normalizer(_anml(p), 100, 3),
               _check_normalizer(100, 3)),
        OpKind("worst_case_m2",
               lambda rng: {"alpha": _alpha(rng), "a": _dirichlet(rng, 2)},
               lambda p: _report(A.worst_case_regret(_anml(p), 1500, 2)),
               _check_worst_m2),
        OpKind("luckiness_worst_case_m3",
               lambda rng: {"b": _dirichlet(rng, 3, 1.0, 3.0)},
               lambda p: _report(A.worst_case_luckiness_regret(
                   A.LuckinessNML(A.DirichletParams(p["b"])), A.DirichletParams(p["b"]), 60, 3)),
               _check_luckiness_worst),
        OpKind("normalizer_m5",
               lambda rng: {"alpha": _alpha(rng), "a": _dirichlet(rng, 5)},
               lambda p: A.log_normalizer(_anml(p), 16, 5),
               _check_normalizer(16, 5)),
        OpKind("sibson_infinity_m4",
               lambda rng: {},
               lambda p: A.sibson_mi_infinity(40, 4),
               lambda p, value: _close(value, R.shtarkov_km(40, 4), 1e-9, "ln Shtarkov sum")),
    ])


# -- simplex -------------------------------------------------------------------


def _regret_point(rep) -> tuple[float, tuple]:
    return rep.value_nats, tuple(rep.maximizer.theta)


def _check_attained(value: float, theta: tuple, counts: np.ndarray, log_q: np.ndarray, order: float):
    at = float(R.renyi(counts, log_q, np.asarray([theta]), order)[0])
    return _close(value, at, 1e-9, f"order-{order:g} regret at the reported maximizer")


def _check_simplex_m3(p: dict, result) -> str | None:
    value, theta = result
    counts = R.compositions(12, 3)
    failure = _check_attained(value, theta, counts, _anml_log_joint(counts, p), p["alpha"])
    if failure:
        return failure
    bound = A.sibson_mi_alpha(12, 3, p["alpha"], A.DirichletParams(p["a"]))
    if value < bound - 1e-9:
        return f"alpha-regret {value!r} below its information-radius lower bound {bound!r}"
    return None


def _check_simplex_m2(order_of: Callable[[dict], float]):
    def check(p: dict, result) -> str | None:
        value, theta = result
        order = order_of(p)
        counts = R.compositions(200, 2)
        log_q = _anml_log_joint(counts, p)
        failure = _check_attained(value, theta, counts, log_q, order)
        if failure:
            return failure

        def objective(ts: np.ndarray) -> np.ndarray:
            return R.renyi(counts, log_q, np.stack([ts, 1.0 - ts], axis=1), order)

        _, grid_max = oracle.brute_simplex_max(objective, 2, oracle.OracleConfig(grid_points=BRUTE_GRID))
        if value < grid_max - 1e-9 * max(1.0, abs(grid_max)):
            return f"order-{order:g} regret {value!r} below the dense-grid maximum {grid_max!r}"
        return None

    return check


def _check_theorem5(p: dict, value: float) -> str | None:
    tilted = A.tilted_params(p["alpha"], A.DirichletParams(p["b"]))
    ref = A.sibson_mi_alpha(100, 2, p["alpha"], tilted)
    if abs(value - ref) <= 1e-6:
        return None
    return f"tilted alpha-regret {value!r} != information radius under the tilted prior {ref!r}"


def _check_average_luckiness(p: dict, value: float) -> str | None:
    counts = R.compositions(100, 2)
    ref = R.expected_kl(counts, _anml_log_joint(counts, p), p["b"])
    return None if abs(value - ref) <= 1e-8 else f"average luckiness regret {value!r} != closed form {ref!r}"


def _check_mutual_information(p: dict, value: float) -> str | None:
    counts = R.compositions(100, 2)
    log_mixture = R.log_beta(counts + np.asarray(p["a"])) - R.log_beta(p["a"])
    ref = R.expected_kl(counts, log_mixture, p["a"])
    return None if abs(value - ref) <= 1e-8 else f"I_1 {value!r} != closed form {ref!r}"


def simplex(seed: int) -> Workload:
    spec_params = lambda rng: {"alpha": _alpha(rng), "a": _dirichlet(rng, 2)}  # noqa: E731
    return Workload("simplex", seed, [
        OpKind("alpha_regret_m3",
               lambda rng: {"alpha": _alpha(rng), "a": _dirichlet(rng, 3)},
               lambda p: _regret_point(A.alpha_regret(_anml(p), 12, 3, p["alpha"])),
               _check_simplex_m3),
        OpKind("average_regret_m2",
               spec_params,
               lambda p: _regret_point(A.average_regret(_anml(p), 200, 2)),
               _check_simplex_m2(lambda p: 1.0)),
        OpKind("alpha_regret_m2",
               spec_params,
               lambda p: _regret_point(A.alpha_regret(_anml(p), 200, 2, p["alpha"])),
               _check_simplex_m2(lambda p: p["alpha"])),
        OpKind("luckiness_alpha_regret_m2",
               lambda rng: {"alpha": _alpha(rng), "b": _dirichlet(rng, 2, 1.0, 3.0)},
               lambda p: A.luckiness_alpha_regret(
                   A.LuckinessAlphaNML(p["alpha"], A.DirichletParams(p["b"])),
                   A.DirichletParams(p["b"]), 100, p["alpha"], 2),
               _check_theorem5),
        OpKind("average_luckiness_regret_m2",
               lambda rng: {"alpha": _alpha(rng), "a": _dirichlet(rng, 2), "b": _dirichlet(rng, 2, 1.0, 3.0)},
               lambda p: A.average_luckiness_regret(_anml(p), A.DirichletParams(p["b"]), 100, 2),
               _check_average_luckiness),
        OpKind("sibson_alpha1_m2",
               lambda rng: {"a": _dirichlet(rng, 2)},
               lambda p: A.sibson_mi_alpha(100, 2, 1.0, A.DirichletParams(p["a"])),
               _check_mutual_information),
    ], ["alpha_regret_m3", "average_regret_m2", "alpha_regret_m2", "luckiness_alpha_regret_m2",
        "average_luckiness_regret_m2", "sibson_alpha1_m2", "alpha_regret_m2"])


# -- sequential ----------------------------------------------------------------


def sequential(seed: int) -> Workload:
    fixed = np.random.default_rng([seed, 2])
    members = [
        ("alpha_nml_m2", A.AlphaNML(_alpha(fixed), A.DirichletParams(_dirichlet(fixed, 2))), 2, 80),
        ("alpha_nml_m3", A.AlphaNML(_alpha(fixed), A.DirichletParams(_dirichlet(fixed, 3))), 3, 24),
        ("nml_m2", A.NML(), 2, 80),
        ("kt_m2", A.kt(2), 2, 80),
    ]

    def kind(name, spec, m, n) -> OpKind:
        def draw(rng) -> dict:
            theta = rng.dirichlet(np.ones(m))
            return {"sequence": tuple(int(x) + 1 for x in rng.choice(m, size=n, p=theta))}

        def run(p: dict):
            loss = A.cumulative_log_loss(spec, p["sequence"], m)
            return loss, A.log_joint(spec, A.CountVector.from_sequence(p["sequence"], m))

        def check(p: dict, result) -> str | None:
            loss, log_joint = result
            failure = _close(loss, -log_joint, 1e-10, "cumulative log loss vs -log joint")
            if failure is None and isinstance(spec, A.Mixture):
                chain = oracle.sequential_mixture_log_prob(p["sequence"], m, spec.a.a)
                failure = _close(log_joint, chain, 1e-10, "mixture log joint vs predictive chain")
            return failure

        return OpKind(name, draw, run, check)

    cycle = ["alpha_nml_m2", "alpha_nml_m3", "nml_m2", "kt_m2", "alpha_nml_m2"]
    return Workload("sequential", seed, [kind(*member) for member in members], cycle)


# -- cli -----------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    via: str  # "process" or "in-process"


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli_process(argv: list[str], *flags: str) -> tuple[CliResult, str]:
    """One ``python -m alphanml.cli`` process: (result, stderr)."""
    proc = subprocess.run([sys.executable, *flags, "-m", "alphanml.cli", *argv], cwd=ROOT, env=cli_env(),
                          capture_output=True, timeout=120)
    return CliResult(proc.returncode, proc.stdout, "process"), proc.stderr.decode(errors="replace")


def run_cli_in_process(argv: list[str]) -> CliResult:
    """``cli.main(argv)`` in this process, with the normalizer cache cleared first."""
    predictors.DEFAULT_CACHE.clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(code, out.getvalue().encode(), "in-process")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(seconds importing from the first alphanml module on, seconds in scipy) from -X importtime.

    Lines are printed when an import finishes, children before parents, with
    two spaces of indent per nesting level. Walking them in reverse visits
    every parent before its children, so the open ancestors are known.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        stripped = name.lstrip(" ")
        rows.append(((len(name) - len(stripped) - 1) // 2, stripped.strip(), int(cumulative) * 1e-6))
    top = [i for i, (level, _, _) in enumerate(rows) if level == 0]
    first = next((i for i in top if rows[i][1].split(".")[0] == "alphanml"), len(rows))
    import_s = sum(rows[i][2] for i in top if i >= first)
    scipy_s = 0.0
    ancestors: list[str] = []
    for level, name, seconds in reversed(rows):
        del ancestors[level:]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy_s += seconds
        ancestors.append(name)
    return import_s, scipy_s


class CliWorkload(Workload):
    """Each op is one CLI process; the check reruns it in process and compares bytes."""

    in_process = False

    def __init__(self, seed: int):
        super().__init__("cli", seed, [])
        self.cycle = ["predict", "predict_horizon", "regret_worst", "regret_alpha", "figure1",
                      "asymptotics", "oracle"]
        self.main_s: list[float] = []  # untimed in-process runs made by check

    @staticmethod
    def argv(kind: str, rng) -> list[str]:
        alpha = f"{_alpha(rng):.6f}"
        prior = ",".join(f"{x:.6f}" for x in _dirichlet(rng, 2))
        past = int(rng.binomial(10, rng.uniform()))
        counts = f"{past},{10 - past}"
        return {
            "predict": ["predict", "--m", "2", "--counts", counts, "--alpha", alpha],
            "predict_horizon": ["predict", "--m", "2", "--counts", counts, "--alpha", alpha, "--horizon", "30"],
            "regret_worst": ["regret", "--kind", "worst", "--n", "200", "--m", "2", "--alpha", alpha,
                             "--prior", prior],
            "regret_alpha": ["regret", "--kind", "alpha", "--n", "20", "--m", "2", "--alpha", alpha,
                             "--prior", prior],
            "figure1": ["figure1", "--n-list", "10,50", "--alpha-max", "3"],
            "asymptotics": ["asymptotics", "--m", "2", "--alpha", alpha, "--n-list", "10,100"],
            "oracle": ["oracle", "--check", "normalizer", "--n", "10", "--m", "2", "--alpha", alpha,
                       "--prior", prior],
        }[kind]

    def ops(self, stream: int) -> Iterator[Op]:
        rng = np.random.default_rng([self.seed, stream])
        for kind in itertools.cycle(self.cycle):
            yield Op(kind, {"argv": self.argv(kind, rng)})

    def run(self, op: Op) -> CliResult:
        return run_cli_process(op.params["argv"])[0]

    def run_traced(self, op: Op) -> CliResult:
        return run_cli_in_process(op.params["argv"])

    def check(self, op: Op, result: CliResult) -> str | None:
        """Exit code 0, stdout equal to an untimed in-process run, oracle rows pass."""
        argv = op.params["argv"]
        t0 = perf_counter()
        other = run_cli_in_process(argv)
        self.main_s.append(perf_counter() - t0)
        for res in (result, other):
            if res.returncode != 0:
                return f"exit code {res.returncode} ({res.via}) for {' '.join(argv)}"
        if result.stdout != other.stdout:
            return f"stdout differs between {result.via} and in-process runs of {' '.join(argv)}"
        if op.kind == "oracle":
            lines = result.stdout.decode().splitlines()
            header = lines[0].split(",")
            statuses = [line.split(",")[header.index("status")] for line in lines[1:]]
            if not statuses or any(s != "pass" for s in statuses):
                return f"oracle rows {statuses} for {' '.join(argv)}"
        return None

    def warm_up(self) -> None:
        self.run(next(self.ops(0)))

    def setup_command(self) -> list[str]:
        return [sys.executable, "-m", "alphanml.cli", *next(self.ops(0)).params["argv"]]

    def layer_metrics(self) -> dict[str, float]:
        """cli.* timings; the caller adds cli.exit_s from the untraced process latency.

        Interpreter start is timed with ``python -c pass``; import times come
        from ``-X importtime`` runs of the first op, and cli.main_s from the
        untimed in-process runs made by ``check``.
        """
        interp, imports, scipy = [], [], []
        argv = next(self.ops(0)).params["argv"]
        for _ in range(3):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=cli_env(), check=True)
            interp.append(perf_counter() - t0)
            _, stderr = run_cli_process(argv, "-X", "importtime")
            import_s, scipy_s = parse_importtime(stderr)
            imports.append(import_s)
            scipy.append(scipy_s)
        return {
            "cli.interp_s": float(np.median(interp)),
            "cli.import_s": float(np.median(imports)),
            "cli.import.scipy_s": float(np.median(scipy)),
            "cli.main_s": float(np.median(self.main_s)),
        }


WORKLOADS = {"scan": scan, "simplex": simplex, "sequential": sequential, "cli": CliWorkload}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def scaling_probe(repeats: int) -> tuple[float, bool]:
    """(threads=nproc speed-up over threads=1, bit-identical) for one fixed reduce."""
    threads = len(os.sched_getaffinity(0))
    spec = A.AlphaNML(2.5, A.DirichletParams.jeffreys(3))
    times: dict[int, list[float]] = {1: [], threads: []}
    values: set[float] = set()
    for _ in range(repeats):
        for t in (1, threads):
            t0 = perf_counter()
            values.add(A.log_normalizer(spec, 120, 3, cache=None, threads=t))
            times[t].append(perf_counter() - t0)
    speedup = float(np.median(times[1]) / np.median(times[threads]))
    return speedup, len(values) == 1 and math.isfinite(next(iter(values)))
