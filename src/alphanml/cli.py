"""Command-line interface.

Subcommands: ``predict`` (next-symbol probabilities), ``regret``
(worst-case / average / alpha-regret of a predictor), ``figure1``
(percent worst-case increase over NML across alphas), ``asymptotics``
(finite-n regret against its large-n formula) and ``oracle``
(fast path vs brute-force cross-checks).

Exit codes: 0 success, 1 failed check or numeric failure, 2 usage error,
3 infeasible model (non-integrable tilt or nonexistent luckiness NML),
4 unsupported range (e.g. grid regrets for m > 3), 5 I/O failure.

Output is CSV (default) or JSON with floats fixed to 12 significant
digits, so identical flags produce byte-identical output; --threads is
accepted for compatibility and changes nothing. Values are reported in
nats and bits together; --base picks the unit of derived columns
(asymptote, gap).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence, TextIO

import numpy as np

from .exceptions import InfeasibleModelError, NumericError, UnsupportedError
from .numerics import LOG_TWO
from .oracle import brute_sequence_sum, quadrature_tilted_alpha_regret, sequence_counts
from .predictors import (
    AlphaNML,
    DirichletParams,
    LuckinessAlphaNML,
    Mixture,
    NML,
    PredictorSpec,
    conditional_distribution,
    kt,
    laplace,
    log_dirichlet_alpha_integral,
    log_normalizer,
    tilted_params,
)
from .regret import (
    alpha_regret,
    asymptotic_rmax,
    figure1_table,
    infinity_split_check,
    alpha_split_check,
    sibson_mi_alpha,
    w_alpha_closed,
    w_alpha_direct,
    worst_case_regret,
)
from .typeclass import CountVector

FIGURE1_NOTE = "# alpha=1 corresponds to the KT estimator"

_ORACLE_TOLERANCES = {
    "normalizer": 1e-9,  # relative
    "lemma1": 1e-10,
    "lemma2": 1e-10,
    "theorem1": 1e-10,
    "theorem5": 1e-6,
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(rows: list[dict], fmt: str, out: TextIO, note: str | None = None) -> None:
    """Write rows as JSON, or as CSV under a header of the row keys and the comment line ``note``, if any."""
    if fmt == "json":
        payload = [
            {k: (float(format(v, ".12g")) if isinstance(v, float) else v) for k, v in row.items()}
            for row in rows
        ]
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    if rows:
        out.write(",".join(rows[0].keys()) + "\n")
        if note is not None:
            out.write(note + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row.values()) + "\n")


def _parse_prior(text: str, m: int) -> DirichletParams:
    if text == "jeffreys":
        return DirichletParams.jeffreys(m)
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--prior must be 'jeffreys' or comma-separated floats, got {text!r}")
    if len(values) != m:
        raise ValueError(f"--prior needs {m} values for m={m}, got {len(values)}")
    return DirichletParams(values)


def _parse_counts(text: str, m: int) -> CountVector:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--counts must be comma-separated integers, got {text!r}")
    if len(values) != m:
        raise ValueError(f"--counts needs {m} values for m={m}, got {len(values)}")
    return CountVector(values)


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        raise ValueError(f"--n-list needs positive integers, got {text!r}")
    return values


def _build_spec(args, m: int) -> tuple[str, PredictorSpec]:
    """The predictor name the flags select, and its spec."""
    prior = _parse_prior(args.prior, m) if args.prior else None
    name = args.predictor
    if name is None:
        if args.alpha is None:
            raise ValueError("provide --predictor or --alpha (implies the alpha family)")
        name = "anml"
    if name == "kt":
        return name, kt(m)
    if name == "laplace":
        return name, laplace(m)
    if name == "nml":
        return name, NML()
    if name == "anml":
        alpha = 1.0 if args.alpha is None else args.alpha
        return name, AlphaNML(alpha, prior or DirichletParams.jeffreys(m))
    if name == "lanml":
        if args.alpha is None:
            raise ValueError("lanml requires --alpha")
        return name, LuckinessAlphaNML(args.alpha, prior or DirichletParams.jeffreys(m))
    raise ValueError(f"unknown predictor {name!r}")


def _maximizer_text(maximizer) -> str:
    if maximizer is None:
        return ""
    if isinstance(maximizer, CountVector):
        return ";".join(str(c) for c in maximizer.counts)
    theta = getattr(maximizer, "theta", None)
    if theta is not None:
        return ";".join(format(t, ".12g") for t in theta)
    return str(maximizer)


def cmd_predict(args) -> int:
    m = args.m
    _, spec = _build_spec(args, m)
    past = _parse_counts(args.counts, m)
    probs = conditional_distribution(spec, past, horizon=args.horizon)
    if abs(float(np.sum(probs)) - 1.0) > 1e-10:
        raise NumericError(f"conditional probabilities sum to {np.sum(probs)!r}, not 1")
    rows = [{"symbol": k + 1, "probability": float(p)} for k, p in enumerate(probs)]
    _emit(rows, args.format, sys.stdout)
    return 0


def cmd_regret(args) -> int:
    m = args.m
    name, spec = _build_spec(args, m)
    if args.kind == "worst":
        report = worst_case_regret(spec, args.n, m)
    elif args.kind == "average":
        report = alpha_regret(spec, args.n, m, 1.0)
    else:
        if args.alpha is None:
            raise ValueError("--kind alpha requires --alpha")
        report = alpha_regret(spec, args.n, m, args.alpha)

    alpha_val = getattr(spec, "alpha", report.alpha)
    if alpha_val is None:  # the worst case of kt or laplace (order 1) or nml (order infinity)
        alpha_val = math.inf if name == "nml" else 1.0
    # the asymptote is that of the alpha family under the Jeffreys prior; kt is alpha = 1, nml alpha = infinity;
    # it needs n >= 1, so an n = 0 row leaves its columns empty, as a row outside the family does
    jeffreys_family = name in ("kt", "nml") or (name == "anml" and spec.a == DirichletParams.jeffreys(m))
    asymptote = None
    if args.kind == "worst" and jeffreys_family and args.n > 0:
        asymptote = asymptotic_rmax(args.n, m, alpha_val)
    scale = 1.0 if args.base == "nats" else 1.0 / LOG_TWO
    row = {
        "n": args.n,
        "m": m,
        "alpha": alpha_val,
        "predictor": name,
        "kind": report.kind,
        "value_nats": report.value_nats,
        "value_bits": report.value_bits,
        "maximizer": _maximizer_text(report.maximizer),
        f"asymptotic_{args.base}": None if asymptote is None else asymptote * scale,
        f"gap_{args.base}": None if asymptote is None else (report.value_nats - asymptote) * scale,
    }
    _emit([row], args.format, sys.stdout)
    if args.kind == "alpha" and name == "anml" and spec.alpha > 1.0:
        bound = sibson_mi_alpha(args.n, m, spec.alpha, spec.a)
        ok = report.value_nats >= bound - 1e-9
        sys.stderr.write(
            f"# lower bound: information radius alpha={_fmt(spec.alpha)} is "
            f"{_fmt(bound)} nats; value >= bound: {ok}\n"
        )
        if not ok:
            return 1
    return 0


def cmd_figure1(args) -> int:
    n_list = _parse_n_list(args.n_list)
    if args.alpha_max < 1:
        raise ValueError(f"--alpha-max must be >= 1, got {args.alpha_max}")
    alphas = [float(a) for a in range(1, args.alpha_max + 1)]
    rows = figure1_table(n_list, alphas, m=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _emit(rows, args.format, fh, note=FIGURE1_NOTE)
    else:
        _emit(rows, args.format, sys.stdout, note=FIGURE1_NOTE)
    return 0


def cmd_asymptotics(args) -> int:
    m = args.m
    alpha = args.alpha if args.alpha is not None else 1.0
    n_list = _parse_n_list(args.n_list)
    spec = Mixture(DirichletParams.jeffreys(m)) if alpha == 1.0 else AlphaNML(alpha, DirichletParams.jeffreys(m))
    scale = 1.0 if args.base == "nats" else 1.0 / LOG_TWO
    rows = []
    for n in n_list:
        exact = worst_case_regret(spec, n, m).value_nats
        asym = asymptotic_rmax(n, m, alpha)
        rows.append(
            {
                "n": n,
                "m": m,
                "alpha": alpha,
                "exact_nats": exact,
                "exact_bits": exact / LOG_TWO,
                f"asymptotic_{args.base}": asym * scale,
                f"gap_{args.base}": (exact - asym) * scale,
            }
        )
    _emit(rows, args.format, sys.stdout)
    return 0


def _oracle_pair(args) -> tuple[float, float, float]:
    """(fast value, cross-check value, tolerance) for one oracle check."""
    n, m = args.n, args.m
    check = args.check
    tol = _ORACLE_TOLERANCES[check]
    if check == "normalizer":
        alpha = args.alpha if args.alpha is not None else 2.0
        prior = _parse_prior(args.prior, m) if args.prior else DirichletParams.jeffreys(m)
        spec = AlphaNML(alpha, prior)
        fast = log_normalizer(spec, n, m)

        def term(seq):
            cv = CountVector(sequence_counts(seq, m))
            return log_dirichlet_alpha_integral(cv, alpha, prior) / alpha

        oracle_value = brute_sequence_sum(n, m, term)
        tol = tol * max(1.0, abs(oracle_value))
        return fast, oracle_value, tol
    if check == "lemma1":
        prior = _parse_prior(args.prior, m) if args.prior else DirichletParams.jeffreys(m)
        spec = Mixture(prior) if args.alpha is None else AlphaNML(args.alpha, prior)
        lhs, rhs = infinity_split_check(spec, n, m)
        return lhs, rhs, tol
    if check == "lemma2":
        alpha = args.alpha if args.alpha is not None else 2.0
        prior = _parse_prior(args.prior, m) if args.prior else DirichletParams.jeffreys(m)
        lhs, rhs = alpha_split_check(alpha, n, m, prior)
        return lhs, rhs, tol
    if check == "theorem1":
        alpha = args.alpha if args.alpha is not None else 2.0
        direct = w_alpha_direct(n, m, alpha, DirichletParams.jeffreys(m)).value
        closed = w_alpha_closed(n, m, alpha)
        return closed, direct, tol
    if check == "theorem5":
        alpha = args.alpha if args.alpha is not None else 2.0
        if alpha <= 1.0:
            raise ValueError("theorem5 check requires --alpha > 1")
        b = _parse_prior(args.prior, m) if args.prior else DirichletParams((2.0,) * m)
        spec = LuckinessAlphaNML(alpha, b)
        lhs = quadrature_tilted_alpha_regret(spec, b, n, alpha, m)
        rhs = sibson_mi_alpha(n, m, alpha, tilted_params(alpha, b))
        return lhs, rhs, tol
    raise ValueError(f"unknown check {check!r}")


def cmd_oracle(args) -> int:
    fast, oracle_value, tol = _oracle_pair(args)
    diff = abs(fast - oracle_value)
    ok = diff <= tol
    rows = [
        {
            "check": args.check,
            "n": args.n,
            "m": args.m,
            "alpha": args.alpha,
            "fast_value": fast,
            "oracle_value": oracle_value,
            "abs_diff": diff,
            "tolerance": tol,
            "status": "pass" if ok else "fail",
        }
    ]
    _emit(rows, args.format, sys.stdout)
    return 0 if ok else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--base", choices=("nats", "bits"), default="nats", help="unit of derived columns")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; computations are single-threaded (must be >= 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphanml",
        description="Universal predictors between Bayes mixtures and NML, with regret analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="next-symbol probabilities given past counts")
    p.add_argument("--m", type=int, required=True, help="alphabet size (>= 2)")
    p.add_argument("--counts", required=True, help="past counts c1,...,cm")
    p.add_argument("--predictor", choices=("kt", "laplace", "nml", "anml", "lanml"))
    p.add_argument("--alpha", type=float, help="alpha for the anml/lanml families")
    p.add_argument("--prior", help="'jeffreys' or comma-separated positive reals")
    p.add_argument("--horizon", type=int, help="evaluation horizon (default: past length + 1)")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("regret", help="regret of a predictor at horizon n")
    p.add_argument("--kind", choices=("worst", "average", "alpha"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--predictor", choices=("kt", "laplace", "nml", "anml", "lanml"))
    p.add_argument("--alpha", type=float, help="regret order for --kind alpha; also the anml alpha")
    p.add_argument("--prior", help="'jeffreys' or comma-separated positive reals")
    _add_common(p)
    p.set_defaults(func=cmd_regret)

    p = sub.add_parser("figure1", help="percent worst-case increase over NML (m = 2)")
    p.add_argument("--n-list", required=True, help="comma-separated horizons, e.g. 10,50,100")
    p.add_argument("--alpha-max", type=int, default=10, help="alphas 1..alpha-max")
    p.add_argument("--out", help="output file (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("asymptotics", help="finite-n worst-case regret vs its large-n formula")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, help="alpha family member (default 1 = KT)")
    p.add_argument("--n-list", required=True, help="comma-separated horizons")
    _add_common(p)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("oracle", help="cross-check a fast path against its oracle")
    p.add_argument(
        "--check",
        choices=("normalizer", "lemma1", "lemma2", "theorem1", "theorem5"),
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--prior", help="'jeffreys' or comma-separated positive reals")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be >= 1, got {args.threads}")
    try:
        return args.func(args)
    except InfeasibleModelError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except UnsupportedError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except NumericError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 5
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
