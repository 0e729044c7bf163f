"""Self-tests of the benchmark: checks catch wrong results, inputs follow the
seed, and every metric named in BENCHMARK.json is reported.

    python -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run

assert run.import_library() is None
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _perturb(result):
    if isinstance(result, workloads.CliResult):
        return dataclasses.replace(result, stdout=result.stdout.replace(b"0", b"1", 1))
    if isinstance(result, tuple):
        return (_perturb(result[0]), *result[1:])
    return result * (1.0 + 1e-6) + 1e-6


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_perturbed_result_is_a_failed_op(name):
    workload = workloads.make(name, 3)
    first_of_each = {op.kind: op for op in itertools.islice(workload.ops(1), len(workload.cycle))}
    for op in first_of_each.values():
        sample = run.Sample(op, workload.run(op), None, 0.0)
        assert run.check_all(workload, [sample]) == [], op
        wrong = run.Sample(op, _perturb(sample.result), None, 0.0)
        assert len(run.check_all(workload, [wrong])) == 1, op


def test_raised_error_is_a_failed_op():
    workload = workloads.make("scan", 3)
    op = next(workload.ops(1))
    assert len(run.check_all(workload, [run.Sample(op, None, "ValueError: boom", 0.0)])) == 1


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_follow_the_seed(name):
    def inputs(seed):
        return [op.params for op in itertools.islice(workloads.make(name, seed).ops(1), 14)]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_benchmark_json_lists_the_reported_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_for_every_workload(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1", "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert "# env " in proc.stdout


def test_host_speed_scaling_cancels_a_slower_host():
    speed = hostspeed.HostSpeed()
    speed.timings = [0.004] * 21 + [0.008] * 20  # the host halves its speed after op 20
    latencies = [0.1] * 20 + [0.2] * 20  # and every op takes twice as long
    scaled = [lat * f for lat, f in zip(latencies, speed.factors(len(latencies)))]
    expected = 0.1 * hostspeed.REFERENCE_S / 0.004
    assert len(scaled) == 40
    assert scaled[:19] == pytest.approx([expected] * 19)
    assert scaled[21:] == pytest.approx([expected] * 19)


def test_fails_without_library_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_parse_importtime_nesting():
    # one space after the bar, then two more per nesting level; children print first
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       200 |        250 |     scipy",
        "import time:        10 |         10 |     numpy.core",
        "import time:       300 |        560 |   alphanml.numerics",
        "import time:        40 |        600 | alphanml",
        "import time:        70 |         70 | argparse",
    ])
    import_s, scipy_s = workloads.parse_importtime(stderr)
    assert import_s == pytest.approx(670e-6)
    assert scipy_s == pytest.approx(250e-6)
