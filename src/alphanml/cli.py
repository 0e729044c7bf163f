"""Command-line interface.

Subcommands: ``predict`` (next-symbol probabilities), ``regret``
(worst-case / average / alpha-regret of a predictor), ``figure1``
(percent worst-case increase over NML across alphas), ``asymptotics``
(finite-n regret against its large-n formula) and ``oracle``
(fast path vs brute-force cross-checks).

Only the alpha families anml and lanml take --prior (Jeffreys by default).
An empty --prior is a usage error. ``oracle`` defaults to --alpha 2 and the
Jeffreys prior, (2, ..., 2) for theorem5, whose order must exceed 1; lemma1
without --alpha checks the mixture (order 1), and theorem1 holds for the
Jeffreys prior only (else exit 4). Its alpha column is the order checked.

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
from typing import Sequence

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

# exit code of each failure family, the first match wins: InfeasibleModelError and UnsupportedError are ValueErrors
_EXIT_CODES = {InfeasibleModelError: 3, UnsupportedError: 4, NumericError: 1, OSError: 5, ValueError: 2}

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


def _emit(rows: list[dict], fmt: str, note: str | None = None, path: str | None = None) -> None:
    """Write rows to the file at ``path``, or to stdout without one: as JSON, or as CSV under a header of the
    row keys and the comment line ``note``, if any."""
    if fmt == "json":
        payload = [
            {k: (float(format(v, ".12g")) if isinstance(v, float) else v) for k, v in row.items()}
            for row in rows
        ]
        lines = [json.dumps(payload, indent=2)]
    else:
        lines = [",".join(rows[0].keys()), *([] if note is None else [note])] if rows else []
        lines += [",".join(_fmt(v) for v in row.values()) for row in rows]
    text = "".join(line + "\n" for line in lines)
    if path:
        with open(path, "w", encoding="utf-8", newline="") as out:
            out.write(text)
    else:
        sys.stdout.write(text)


def _parse_list(text: str, flag: str, kind: type, m: int | None = None, expected: str = "comma-separated integers"):
    """A comma-separated flag's values, each read by ``kind``; exactly m of them when m is given."""
    try:
        values = tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be {expected}, got {text!r}")
    if m is not None and len(values) != m:
        raise ValueError(f"{flag} needs {m} values for m={m}, got {len(values)}")
    return values


def _n_list(args) -> tuple[int, ...]:
    values = _parse_list(args.n_list, "--n-list", int)
    if any(v < 1 for v in values):
        raise ValueError(f"--n-list needs positive integers, got {args.n_list!r}")
    return values


def _prior(args) -> DirichletParams | None:
    """The --prior flag's parameters at --m, or None if it is absent; an empty one fails to parse."""
    if args.prior is None:
        return None
    if args.prior == "jeffreys":
        return DirichletParams.jeffreys(args.m)
    return DirichletParams(_parse_list(args.prior, "--prior", float, args.m, "'jeffreys' or comma-separated floats"))


# --predictor name -> its spec at m; the alpha families anml and lanml take (alpha, prior) instead
_PREDICTORS = {"kt": kt, "laplace": laplace, "nml": lambda m: NML(), "anml": AlphaNML, "lanml": LuckinessAlphaNML}


def _build_spec(args) -> tuple[str, PredictorSpec]:
    """The predictor name the flags select, and its spec; --prior applies to the alpha families only."""
    prior = _prior(args)
    if args.predictor is None and args.alpha is None:
        raise ValueError("provide --predictor or --alpha (implies the alpha family)")
    name = args.predictor or "anml"
    if name not in ("anml", "lanml"):
        if prior is not None:
            raise ValueError(f"--prior applies to anml and lanml only, not {name}")
        return name, _PREDICTORS[name](args.m)
    alpha = 1.0 if args.alpha is None and name == "anml" else args.alpha
    if alpha is None:
        raise ValueError("lanml requires --alpha")
    return name, _PREDICTORS[name](alpha, prior or DirichletParams.jeffreys(args.m))


def _maximizer_text(at) -> str:
    """A report's maximizer, ';'-separated: the counts of a CountVector, or the theta of a SimplexPoint."""
    return ";".join(_fmt(x) for x in (at.counts if isinstance(at, CountVector) else at.theta))


def _asymptote_columns(base: str, value_nats: float, asymptote: float | None) -> dict:
    """The asymptote and the gap value - asymptote in the unit of --base; both empty without an asymptote."""
    scale = 1.0 if base == "nats" else 1.0 / LOG_TWO
    columns = (None, None) if asymptote is None else (asymptote * scale, (value_nats - asymptote) * scale)
    return dict(zip((f"asymptotic_{base}", f"gap_{base}"), columns))


def cmd_predict(args) -> int:
    _, spec = _build_spec(args)
    past = CountVector(_parse_list(args.counts, "--counts", int, args.m))
    probs = conditional_distribution(spec, past, horizon=args.horizon)
    if abs(float(np.sum(probs)) - 1.0) > 1e-10:
        raise NumericError(f"conditional probabilities sum to {np.sum(probs)!r}, not 1")
    rows = [{"symbol": k + 1, "probability": float(p)} for k, p in enumerate(probs)]
    _emit(rows, args.format)
    return 0


def cmd_regret(args) -> int:
    m = args.m
    name, spec = _build_spec(args)
    if args.kind == "alpha" and args.alpha is None:
        raise ValueError("--kind alpha requires --alpha")
    if args.kind == "worst":
        report = worst_case_regret(spec, args.n, m)
    else:  # the average regret is the alpha-regret of order 1
        report = alpha_regret(spec, args.n, m, 1.0 if args.kind == "average" else args.alpha)

    alpha_val = getattr(spec, "alpha", report.alpha)
    if alpha_val is None:  # the worst case of kt or laplace (order 1) or nml (order infinity)
        alpha_val = math.inf if name == "nml" else 1.0
    # the asymptote is that of the alpha family under the Jeffreys prior; kt is alpha = 1, nml alpha = infinity;
    # it needs n >= 1, so an n = 0 row leaves its columns empty, as a row outside the family does
    jeffreys_family = name in ("kt", "nml") or (name == "anml" and spec.a == DirichletParams.jeffreys(m))
    asym = asymptotic_rmax(args.n, m, alpha_val) if args.kind == "worst" and jeffreys_family and args.n > 0 else None
    row = {
        "n": args.n,
        "m": m,
        "alpha": alpha_val,
        "predictor": name,
        "kind": report.kind,
        "value_nats": report.value_nats,
        "value_bits": report.value_bits,
        "maximizer": _maximizer_text(report.maximizer),
        **_asymptote_columns(args.base, report.value_nats, asym),
    }
    _emit([row], args.format)
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
    n_list = _n_list(args)
    if args.alpha_max < 1:
        raise ValueError(f"--alpha-max must be >= 1, got {args.alpha_max}")
    alphas = [float(a) for a in range(1, args.alpha_max + 1)]
    rows = figure1_table(n_list, alphas, m=2)
    _emit(rows, args.format, note=FIGURE1_NOTE, path=args.out)
    return 0


def cmd_asymptotics(args) -> int:
    m = args.m
    alpha = args.alpha if args.alpha is not None else 1.0
    n_list = _n_list(args)
    spec = Mixture(DirichletParams.jeffreys(m)) if alpha == 1.0 else AlphaNML(alpha, DirichletParams.jeffreys(m))
    rows = []
    for n in n_list:
        exact = worst_case_regret(spec, n, m).value_nats
        row = {"n": n, "m": m, "alpha": alpha, "exact_nats": exact, "exact_bits": exact / LOG_TWO}
        rows.append({**row, **_asymptote_columns(args.base, exact, asymptotic_rmax(n, m, alpha))})
    _emit(rows, args.format)
    return 0


def _oracle_pair(args) -> tuple[float, float, float, float]:
    """(order checked, fast value, cross-check value, tolerance) of one oracle check; the module gives the defaults."""
    n, m, check = args.n, args.m, args.check
    alpha = args.alpha if args.alpha is not None else 1.0 if check == "lemma1" else 2.0
    if check == "theorem5" and alpha <= 1.0:
        raise ValueError("theorem5 check requires --alpha > 1")
    prior = _prior(args) or (DirichletParams((2.0,) * m) if check == "theorem5" else DirichletParams.jeffreys(m))
    tol = _ORACLE_TOLERANCES[check]
    if check == "normalizer":
        fast = log_normalizer(AlphaNML(alpha, prior), n, m)
        oracle_value = brute_sequence_sum(
            n, m, lambda seq: log_dirichlet_alpha_integral(CountVector(sequence_counts(seq, m)), alpha, prior) / alpha
        )
        return alpha, fast, oracle_value, tol * max(1.0, abs(oracle_value))
    if check == "lemma1":
        spec = Mixture(prior) if alpha == 1.0 else AlphaNML(alpha, prior)
        return alpha, *infinity_split_check(spec, n, m), tol
    if check == "lemma2":
        return alpha, *alpha_split_check(alpha, n, m, prior), tol
    if check == "theorem1":
        closed = w_alpha_closed(n, m, alpha, prior)  # first: a non-Jeffreys prior has no closed form (exit 4)
        return alpha, closed, w_alpha_direct(n, m, alpha, prior).value, tol
    lhs = quadrature_tilted_alpha_regret(LuckinessAlphaNML(alpha, prior), prior, n, alpha, m)  # theorem5
    return alpha, lhs, sibson_mi_alpha(n, m, alpha, tilted_params(alpha, prior)), tol


def cmd_oracle(args) -> int:
    alpha, fast, oracle_value, tol = _oracle_pair(args)
    diff = abs(fast - oracle_value)
    ok = diff <= tol
    row = {
        "check": args.check,
        "n": args.n,
        "m": args.m,
        "alpha": alpha,
        "fast_value": fast,
        "oracle_value": oracle_value,
        "abs_diff": diff,
        "tolerance": tol,
        "status": "pass" if ok else "fail",
    }
    _emit([row], args.format)
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
    p.add_argument("--predictor", choices=tuple(_PREDICTORS))
    p.add_argument("--alpha", type=float, help="alpha for the anml/lanml families")
    p.add_argument("--prior", help="'jeffreys' or comma-separated positive reals")
    p.add_argument("--horizon", type=int, help="evaluation horizon (default: past length + 1)")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("regret", help="regret of a predictor at horizon n")
    p.add_argument("--kind", choices=("worst", "average", "alpha"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--predictor", choices=tuple(_PREDICTORS))
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
    p.add_argument("--check", choices=tuple(_ORACLE_TOLERANCES), required=True)
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
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        sys.stderr.write(f"{'usage error' if code == 2 else 'error'}: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
