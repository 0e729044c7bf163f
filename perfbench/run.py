"""Benchmark for alphanml: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. One client sends the next op when the previous one has
returned. Every op's result is checked against an independent reference
after the timed region; a raised exception or a failed check counts as a
failed op.

Latencies, throughput and set-up time are reported at a reference host
speed (see ``hostspeed``): a fixed kernel is timed between ops (between
set-ups), and each op's time is scaled by the kernel's local time, so that
the drift of a shared host's speed cancels. The raw figures are printed
beside them.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` spends half the time untraced and half traced (whole cycles
of the op mix, with spans around calls into every module) and reports the
per-layer metrics. The last line of stdout is one JSON object; the lines
before it (starting with '#') record the environment and the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("scan", "simplex", "sequential", "cli")
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_REPEATS = 3  # set-up is timed this many times per run; the median is reported
SETUP_KERNEL_REPEATS = 3  # kernel timings between set-ups; their median is one timing
PROBE_REPEATS = 3  # timings per thread count in the scaling probe (traced runs)
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples beyond it


@dataclass
class Sample:
    op: object
    result: object
    error: str | None
    latency: float


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the library, warm up and exit (what setup_s times)")
    return parser.parse_args(argv)


def import_library() -> str | None:
    """Import alphanml from this checkout's src; return an error message on failure."""
    init = SRC / "alphanml" / "__init__.py"
    if not init.is_file():
        return f"no library source at {init.relative_to(ROOT)}"
    sys.path.insert(0, str(SRC))
    import alphanml

    if Path(alphanml.__file__).resolve() != init.resolve():
        return f"alphanml imported from {alphanml.__file__}, not from this checkout"
    return None


def measure(run, ops, seconds: float, cycle: int, speed: HostSpeed) -> tuple[list[Sample], float]:
    """Closed loop for ``seconds``, then on to the end of the current cycle of ``cycle`` ops.

    ``speed`` times its kernel before every op and after the last one; the
    returned wall time counts the ops only.
    """
    samples: list[Sample] = []
    start = perf_counter()
    speed.sample()
    while True:
        op = next(ops)
        t0 = perf_counter()
        try:
            result, error = run(op), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        samples.append(Sample(op, result, error, t1 - t0))
        speed.sample()
        if perf_counter() - start >= seconds and len(samples) % cycle == 0:
            return samples, sum(s.latency for s in samples)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def check_all(workload, samples: list[Sample]) -> list[str]:
    failures = []
    for s in samples:
        error = s.error
        if error is None:
            try:
                error = workload.check(s.op, s.result)
            except Exception as exc:  # a check that cannot run fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{s.op.kind} {s.op.params}: {error}")
    return failures


def setup_seconds(workload, env: dict) -> tuple[float, float]:
    """(median set-up wall time, same at the reference host speed)."""
    walls = []
    speed = HostSpeed()
    speed.sample(SETUP_KERNEL_REPEATS)
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(workload.setup_command(), cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=120)
        walls.append(perf_counter() - t0)
        speed.sample(SETUP_KERNEL_REPEATS)
    scaled = [wall * f for wall, f in zip(walls, speed.factors(len(walls)))]
    return statistics.median(walls), statistics.median(scaled)


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def gamma_table_entries() -> int:
    from alphanml import numerics

    tables = (getattr(numerics, "_INT_TABLE", ()), getattr(numerics, "_HALF_TABLE", ()))
    return sum(len(t) for t in tables)


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = import_library()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads
    from spans import PER_LAYER, Tracer, WarningCounter

    from alphanml import predictors

    workload = workloads.make(args.workload, args.seed)
    if args.setup_only:
        workload.warm_up()
        return 0

    counter = WarningCounter()
    counter.install()
    setup_raw, setup_s = (None, None) if args.trace else setup_seconds(workload, workloads.cli_env())
    workload.warm_up()

    traced: list[Sample] = []
    tracer = Tracer()
    speed, traced_speed = HostSpeed(), HostSpeed()
    if args.trace:
        samples, wall = measure(workload.run, workload.ops(1), args.seconds / 2, len(workload.cycle), speed)
        counter.tracer = tracer
        tracer.install()
        try:
            traced, _ = measure(workload.run_traced, workload.ops(3), args.seconds / 2, len(workload.cycle),
                                traced_speed)
        finally:
            tracer.uninstall()
            counter.tracer = None
    else:
        samples, wall = measure(workload.run, workload.ops(1), args.seconds, len(workload.cycle), speed)
    rss = peak_rss_mb(workload.in_process)

    failures = check_all(workload, samples + traced)
    speedup, identical = workloads.scaling_probe(PROBE_REPEATS if args.trace else 1)
    if not identical:
        failures.append("typeclass scaling probe: threads=1 and threads=nproc results differ")
    attempted = len(samples) + len(traced) + 1

    latencies = [s.latency for s in samples]
    p50 = statistics.median(latencies)
    scaled = [s.latency * f for s, f in zip(samples, speed.factors(len(samples)))]
    scaled_p50 = statistics.median(scaled)
    tail_value, tail_pct = tail(scaled)
    if args.trace:
        metrics = tracer.metrics(len(traced))
        traced_p50 = statistics.median(s.latency for s in traced)
        layer = workload.layer_metrics()
        if workload.in_process:
            traced_scaled = [s.latency * f for s, f in zip(traced, traced_speed.factors(len(traced)))]
            overhead = statistics.median(traced_scaled) / scaled_p50
        else:
            overhead = traced_p50 / layer["cli.main_s"]
            layer["cli.exit_s"] = p50 - layer["cli.interp_s"] - layer["cli.import_s"] - layer["cli.main_s"]
        metrics.update(layer)
        metrics.update({
            "numerics.gamma_table.entries": gamma_table_entries(),
            "typeclass.scaling_2t": speedup,
            "predictors.cache.entries": len(predictors.DEFAULT_CACHE),
            "trace.ops": len(traced),
            "trace.overhead": overhead,
        })
        units = dict(PER_LAYER)
    else:
        metrics = {
            "ops_per_s": len(samples) / sum(scaled),
            "op_p50_ms": scaled_p50 * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)

    print("# env " + json.dumps(environment(args)))
    print(f"# {args.workload}: {len(samples)} timed ops in {wall:.3f} s, one closed-loop client; "
          f"op_tail_ms is p{tail_pct:.2f} of {len(samples)} samples")
    print(f"# host speed: kernel median {speed.median() * 1e3:.3f} ms against {REFERENCE_S * 1e3:g} ms "
          f"at the reference speed; unscaled ops_per_s {len(samples) / wall:.4f}, op_p50_ms {p50 * 1e3:.3f}"
          + ("" if setup_raw is None else f", setup_s {setup_raw:.4f}"))
    if args.trace:
        print(f"# traced: {len(traced)} ops ({len(traced) // len(workload.cycle)} whole cycles of the mix)")
    print(f"# error_rate {len(failures) / attempted!r} ({len(failures)} failed of {attempted} attempted, "
          f"scaling probe included)")
    print("# warnings " + json.dumps(dict(counter.totals)))
    for failure in failures:
        print(f"# failed: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
