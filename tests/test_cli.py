"""Command-line interface: output shape, determinism, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alphanml import cli
from alphanml.predictors import DEFAULT_CACHE


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    """Next-symbol probabilities on stdout."""

    def test_mixture_closed_form(self, capsys):
        code, out, _ = run(capsys, ["predict", "--m", "2", "--predictor", "kt", "--counts", "1,0"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "symbol,probability"
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(probs, [0.75, 0.25], atol=1e-12)

    def test_mixture_larger_past(self, capsys):
        code, out, _ = run(capsys, ["predict", "--m", "2", "--predictor", "kt", "--counts", "3,1"])
        assert code == 0
        probs = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        np.testing.assert_allclose(probs, [0.7, 0.3], atol=1e-12)

    def test_order_one_uniform_start(self, capsys):
        code, out, _ = run(
            capsys, ["predict", "--m", "2", "--predictor", "anml", "--alpha", "1", "--counts", "0,0"]
        )
        assert code == 0
        probs = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_alpha_flag_alone_selects_family(self, capsys):
        code, out, _ = run(capsys, ["predict", "--m", "2", "--alpha", "2", "--counts", "1,0"])
        assert code == 0
        p1 = float(out.strip().splitlines()[1].split(",")[1])
        np.testing.assert_allclose(p1, 0.773532788564, atol=1e-9)

    def test_json_output_normalizes(self, capsys):
        code, out, _ = run(
            capsys,
            ["predict", "--m", "3", "--predictor", "nml", "--counts", "2,0,1", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["symbol"] for r in rows] == [1, 2, 3]
        np.testing.assert_allclose(sum(r["probability"] for r in rows), 1.0, atol=1e-10)

    def test_horizon_flag(self, capsys):
        code, out, _ = run(
            capsys,
            ["predict", "--m", "2", "--predictor", "kt", "--counts", "2,1", "--horizon", "5"],
        )
        assert code == 0
        p1 = float(out.strip().splitlines()[1].split(",")[1])
        np.testing.assert_allclose(p1, 0.625, atol=1e-12)


class TestRegret:
    """Regret reports with unit pairs and asymptotic columns."""

    def test_worst_case_row(self, capsys):
        code, out, _ = run(capsys, ["regret", "--kind", "worst", "--n", "10", "--m", "2", "--predictor", "kt"])
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        np.testing.assert_allclose(float(fields["value_nats"]), 1.7361522965964522, rtol=1e-10)
        np.testing.assert_allclose(
            float(fields["value_bits"]), 1.7361522965964522 / math.log(2), rtol=1e-10
        )
        assert fields["maximizer"] == "0;10"
        assert fields["alpha"] == "1"
        gap = float(fields["gap_nats"])
        assert 0 < gap < 0.02

    @pytest.mark.parametrize("predictor", ["kt", "laplace", "nml"])
    def test_empty_horizon_leaves_asymptote_columns_empty(self, capsys, predictor):
        """n = 0 has regret 0 but no large-n formula: its asymptote and gap columns are empty."""
        code, out, err = run(capsys, ["regret", "--kind", "worst", "--n", "0", "--m", "2", "--predictor", predictor])
        assert (code, err) == (0, "")
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["maximizer"] == "0;0"
        assert fields["value_nats"] == fields["value_bits"] == "0"
        assert fields["asymptotic_nats"] == fields["gap_nats"] == ""

    def test_bits_base_scales_derived_columns(self, capsys):
        _, out_n, _ = run(capsys, ["regret", "--kind", "worst", "--n", "8", "--m", "2", "--predictor", "kt"])
        _, out_b, _ = run(
            capsys,
            ["regret", "--kind", "worst", "--n", "8", "--m", "2", "--predictor", "kt", "--base", "bits"],
        )
        row_n = dict(zip(*[line.split(",") for line in out_n.strip().splitlines()]))
        row_b = dict(zip(*[line.split(",") for line in out_b.strip().splitlines()]))
        assert "asymptotic_nats" in row_n and "asymptotic_bits" in row_b
        np.testing.assert_allclose(
            float(row_b["asymptotic_bits"]), float(row_n["asymptotic_nats"]) / math.log(2), rtol=1e-9
        )
        assert row_n["value_nats"] == row_b["value_nats"]
        assert row_n["value_bits"] == row_b["value_bits"]

    def test_alpha_kind_reports_lower_bound(self, capsys):
        code, out, err = run(
            capsys,
            ["regret", "--kind", "alpha", "--alpha", "2", "--n", "3", "--m", "2", "--predictor", "anml"],
        )
        assert code == 0
        assert "lower bound" in err
        assert "value >= bound: True" in err
        row = out.strip().splitlines()[1].split(",")
        np.testing.assert_allclose(float(row[5]), 1.1133254952156513, rtol=1e-9)

    def test_average_kind(self, capsys):
        code, out, _ = run(capsys, ["regret", "--kind", "average", "--n", "3", "--m", "2", "--predictor", "kt"])
        assert code == 0
        assert ",average," in out


class TestFigure1:
    """Pinned comparison-table format."""

    def test_header_and_note(self, capsys):
        code, out, _ = run(capsys, ["figure1", "--n-list", "5", "--alpha-max", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,alpha,regret_nats,nml_regret_nats,percent_increase"
        assert lines[1] == "# alpha=1 corresponds to the KT estimator"
        assert len(lines) == 4

    def test_base_flag_does_not_change_format(self, capsys):
        _, out_a, _ = run(capsys, ["figure1", "--n-list", "5", "--alpha-max", "2"])
        _, out_b, _ = run(capsys, ["figure1", "--n-list", "5", "--alpha-max", "2", "--base", "bits"])
        assert out_a == out_b

    def test_out_file_and_thread_independence(self, capsys, tmp_path):
        p1 = tmp_path / "t1.csv"
        p8 = tmp_path / "t8.csv"
        assert cli.main(["figure1", "--n-list", "10,20", "--out", str(p1), "--threads", "1"]) == 0
        assert cli.main(["figure1", "--n-list", "10,20", "--out", str(p8), "--threads", "8"]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p8.read_bytes()

    def test_json_variant(self, capsys):
        code, out, _ = run(capsys, ["figure1", "--n-list", "5", "--alpha-max", "2", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert {r["alpha"] for r in rows} == {1.0, 2.0}


class TestAsymptotics:
    """Exact-versus-formula comparison rows."""

    def test_row_columns_and_gap(self, capsys):
        code, out, _ = run(capsys, ["asymptotics", "--m", "2", "--alpha", "2", "--n-list", "50,100"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,alpha,exact_nats,exact_bits,asymptotic_nats,gap_nats"
        gaps = [float(line.split(",")[6]) for line in lines[1:]]
        assert gaps[1] < gaps[0]
        assert all(g > 0 for g in gaps)


class TestOracleChecks:
    """Fast-path versus oracle comparisons with pass/fail status."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--check", "normalizer", "--n", "5", "--m", "2", "--alpha", "2"],
            ["oracle", "--check", "lemma1", "--n", "4", "--m", "2", "--alpha", "2"],
            ["oracle", "--check", "lemma2", "--n", "4", "--m", "2", "--alpha", "2.5"],
            ["oracle", "--check", "theorem1", "--n", "10", "--m", "3", "--alpha", "2"],
            ["oracle", "--check", "theorem5", "--n", "2", "--m", "2", "--alpha", "2"],
        ],
    )
    def test_checks_pass(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",pass")

    def test_enumeration_beyond_the_guard_exits_four(self, capsys):
        code, out, err = run(capsys, ["oracle", "--check", "normalizer", "--n", "10", "--m", "4"])
        assert (code, out) == (4, "")
        assert err == "error: m^n = 4^10 sequences exceed the brute-force enumeration guard of 262144\n"

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._ORACLE_TOLERANCES, "theorem1", 0.0)
        code, out, _ = run(capsys, ["oracle", "--check", "theorem1", "--n", "20", "--m", "3", "--alpha", "2"])
        assert code == 1
        assert out.strip().splitlines()[1].endswith(",fail")


class TestExitCodes:
    """The documented code for each failure family."""

    def test_usage_bad_counts_length(self, capsys):
        code, _, err = run(capsys, ["predict", "--m", "2", "--predictor", "kt", "--counts", "1,0,0"])
        assert code == 2
        assert "usage error" in err

    def test_usage_missing_predictor_and_alpha(self, capsys):
        code, _, _ = run(capsys, ["predict", "--m", "2", "--counts", "1,0"])
        assert code == 2

    def test_usage_bad_n_list(self, capsys):
        code, _, _ = run(capsys, ["figure1", "--n-list", "ten"])
        assert code == 2

    def test_infeasible_tilt(self, capsys):
        code, _, err = run(
            capsys, ["predict", "--m", "2", "--predictor", "lanml", "--alpha", "2", "--counts", "1,0"]
        )
        assert code == 3
        assert "error" in err

    def test_unsupported_alphabet(self, capsys):
        code, _, _ = run(
            capsys, ["regret", "--kind", "average", "--n", "4", "--m", "4", "--predictor", "kt"]
        )
        assert code == 4

    def test_io_failure(self, capsys):
        code, _, _ = run(
            capsys, ["figure1", "--n-list", "5", "--out", "/nonexistent/dir/out.csv"]
        )
        assert code == 5

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    @pytest.mark.parametrize("predictor", ["kt", "nml"])
    def test_non_finite_regret_order_is_a_usage_error(self, capsys, alpha, predictor):
        code, out, err = run(
            capsys, ["regret", "--kind", "alpha", "--alpha", alpha, "--n", "5", "--m", "2", "--predictor", predictor]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: alpha must be")

    def test_argparse_usage(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["regret", "--kind", "bogus", "--n", "3", "--m", "2"])
        assert info.value.code == 2


class TestThreadsFlag:
    """--threads is an accepted no-op that must be a positive integer."""

    def test_environment_variable_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHANML_THREADS", "abc")
        code, out, _ = run(capsys, ["predict", "--m", "2", "--counts", "1,2", "--alpha", "2"])
        assert code == 0
        assert out.startswith("symbol,probability\n")

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_rejects_values_below_one(self, capsys, value):
        with pytest.raises(SystemExit) as info:
            cli.main(["predict", "--m", "2", "--counts", "1,2", "--alpha", "2", "--threads", value])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err


def _python(code: str, *args: str) -> str:
    """stdout of a fresh interpreter running ``code`` on this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True).stdout


# one invocation of each op kind of the benchmark's cli workload, whose special functions stay on the ports
SMALL_COMMANDS = [
    ["predict", "--m", "2", "--counts", "3,7", "--alpha", "2.500000"],
    ["predict", "--m", "2", "--counts", "3,7", "--alpha", "2.500000", "--horizon", "30"],
    ["regret", "--kind", "worst", "--n", "200", "--m", "2", "--alpha", "2.500000", "--prior", "0.700000,1.300000"],
    ["regret", "--kind", "alpha", "--n", "20", "--m", "2", "--alpha", "2.500000", "--prior", "0.700000,1.300000"],
    ["figure1", "--n-list", "10,50", "--alpha-max", "3"],
    ["asymptotics", "--m", "2", "--alpha", "2.500000", "--n-list", "10,100"],
    ["oracle", "--check", "normalizer", "--n", "10", "--m", "2", "--alpha", "2.500000", "--prior", "0.700000,1.300000"],
]
# a quadrature over theta and an m = 3 supremum, which run on alphanml._ports and stay within the ports' budget
THETA_COMMANDS = [
    ["oracle", "--check", "theorem5", "--n", "6", "--m", "2", "--alpha", "2.5"],
    ["regret", "--kind", "alpha", "--n", "8", "--m", "3", "--alpha", "2", "--predictor", "kt"],
]
# its 150,001-row scan is more cells than the ports' budget, so it runs on scipy.special
LARGE_COMMAND = ["regret", "--kind", "worst", "--n", "150000", "--m", "2", "--predictor", "kt"]

_RUN_COMMANDS = """
import contextlib, io, json, sys
from alphanml import cli

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

small, large = json.loads(sys.argv[1])
results = [run(argv) for argv in small]
after_small = scipy_modules()
results.append(run(large))
print(json.dumps([results, after_small, scipy_modules()]))
"""


class TestImportCost:
    """The command loads no scipy module until a computation needs one."""

    def test_cli_import_leaves_optimize_and_integrate_unloaded(self):
        probe = (
            "import sys, alphanml.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.integrate', 'alphanml._ports') if m in sys.modules])"
        )
        assert _python(probe).strip() == "[]"

    def test_small_commands_run_without_scipy_and_print_the_in_process_bytes(self, capsys):
        """A fresh process runs the small commands on the ports, and the large one switches to scipy.special.

        Each command's exit code, stdout and stderr equal those of ``cli.main`` in this process,
        where scipy is loaded and the special functions run on scipy from the first call.
        """
        small = [*SMALL_COMMANDS, *THETA_COMMANDS]
        results, after_small, after_large = json.loads(_python(_RUN_COMMANDS, json.dumps([small, LARGE_COMMAND])))
        assert after_small == []
        assert "scipy.special" in after_large
        for argv, result in zip([*small, LARGE_COMMAND], results, strict=True):
            DEFAULT_CACHE.clear()
            assert list(run(capsys, argv)) == result, argv
