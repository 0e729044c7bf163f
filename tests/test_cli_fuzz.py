"""The CLI's exit-code contract under random flag combinations of every subcommand.

Whatever the flags, ``cli.main`` returns (or argparse exits with) one of the documented codes 0-5, and no
exception escapes it: in a process, an escaped exception is a traceback on stderr and exit 1. Sizes stay
small (n <= 40, m <= 4, and fewer classes or sequences where a command enumerates them one at a time), and
some values are invalid on purpose.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from alphanml import cli
from alphanml.predictors import DEFAULT_CACHE

EXIT_CODES = {0, 1, 2, 3, 4, 5}

# (flag, value) pairs that each make a command invalid; the missing directory is filled in per example
FAULTS = [
    ("--m", "1"), ("--m", "0"), ("--m", "-1"), ("--n", "-1"), ("--alpha", "0.5"), ("--alpha", "0"),
    ("--alpha", "nan"), ("--alpha", "inf"), ("--alpha", "x"), ("--prior", "-1,2"), ("--prior", "0,1"),
    ("--prior", "1,2,3,4,5"), ("--prior", "x,y"), ("--prior", ""), ("--counts", "1,-1"), ("--counts", "a,b"),
    ("--counts", ""), ("--horizon", "-1"), ("--n-list", "0"), ("--n-list", "-2"), ("--n-list", "x"),
    ("--n-list", ""), ("--alpha-max", "0"), ("--format", "xml"), ("--base", "bytes"), ("--threads", "0"),
    ("--kind", "best"), ("--check", "lemma3"), ("--predictor", "mixture"), ("--out", "{missing}"),
]


def _optional(flag: str, values: st.SearchStrategy) -> st.SearchStrategy[list[str]]:
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _joined(values: st.SearchStrategy, size: int) -> st.SearchStrategy[str]:
    return st.lists(values, min_size=size, max_size=size).map(lambda vs: ",".join(map(str, vs)))


@st.composite
def _valid_argv(draw, out_dir: str) -> list[str]:
    """A command whose every flag value is well formed; the values may still name an unsupported or
    infeasible request."""
    command = draw(st.sampled_from(["predict", "regret", "figure1", "asymptotics", "oracle"]))
    m = draw(st.integers(2, 4))
    n = draw(st.integers(0, 40))
    alpha = draw(_optional("--alpha", st.sampled_from(["1", "1.5", "2", "2.5", "7", "1e6"])))
    priors = st.one_of(st.just("jeffreys"), _joined(st.sampled_from([0.3, 0.5, 1, 1.5, 2, 3.25]), m))
    prior = draw(_optional("--prior", priors))
    predictor = draw(_optional("--predictor", st.sampled_from(["kt", "laplace", "nml", "anml", "lanml"])))
    common = [
        *draw(_optional("--format", st.sampled_from(["csv", "json"]))),
        *draw(_optional("--base", st.sampled_from(["nats", "bits"]))),
        *draw(_optional("--threads", st.sampled_from([1, 2]))),
    ]
    n_list = draw(_joined(st.integers(1, 40), draw(st.integers(1, 3))))
    if command == "predict":
        counts = draw(_joined(st.integers(0, 8), m))
        horizon = draw(_optional("--horizon", st.sampled_from([0, 3, 12, 25, 40])))
        argv = ["predict", "--m", str(m), "--counts", counts, *predictor, *alpha, *prior, *horizon]
    elif command == "regret":
        kind = draw(st.sampled_from(["worst", "average", "alpha"]))
        if kind in ("average", "alpha") and m == 3:
            n = min(n, 12)  # a lattice of 33,153 points over every class
        argv = ["regret", "--kind", kind, "--n", str(n), "--m", str(m), *predictor, *alpha, *prior]
    elif command == "figure1":
        alpha_max = draw(_optional("--alpha-max", st.sampled_from([1, 3, 10])))
        argv = ["figure1", "--n-list", n_list, *alpha_max, *draw(_optional("--out", st.just(out_dir + "/rows.csv")))]
    elif command == "asymptotics":
        argv = ["asymptotics", "--m", str(m), "--n-list", n_list, *alpha]
    else:
        check = draw(st.sampled_from(["normalizer", "lemma1", "lemma2", "theorem1", "theorem5"]))
        if check == "normalizer":
            n = min(n, {2: 12, 3: 7, 4: 6}[m])  # the oracle sums over all m^n sequences one at a time
        argv = ["oracle", "--check", check, "--n", str(n), "--m", str(m), *alpha, *prior]
    return argv + common


@st.composite
def _argv(draw, out_dir: str) -> list[str]:
    """A well-formed command, or one with a single flag set to an invalid value."""
    argv = draw(_valid_argv(out_dir))
    fault = draw(st.one_of(st.none(), st.sampled_from(FAULTS)))
    if fault is not None:
        flag, value = fault[0], fault[1].format(missing=out_dir + "/missing/rows.csv")
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return argv


def _run(argv: list[str]) -> tuple[object, str]:
    DEFAULT_CACHE.clear()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


class TestExitCodeContract:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_flag_combination_exits_with_a_documented_code(self, data):
        with tempfile.TemporaryDirectory() as out_dir:
            argv = data.draw(_argv(out_dir))
            code, err = _run(argv)
        assert code in EXIT_CODES, (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code != 0:
            assert err, argv  # a failure says why on stderr

    def test_overflowing_quadrature_is_a_numeric_error(self):
        # found by the fuzz: at alpha = 1e6 the tilted alpha-regret's integrand is e^(2e6), which escaped as
        # an OverflowError traceback
        code, err = _run(["oracle", "--check", "theorem5", "--n", "5", "--m", "2", "--alpha", "1e6"])
        assert code == 1
        assert err.startswith("error: the tilted alpha-regret's integrand exceeds the float range")
        assert err.count("\n") == 1
