"""Command-line front end.

One subcommand per library operation; every run emits a single Report
(JSON by default, CSV with --format csv) on stdout or to --out.  A
handler validates its arguments, calls the library and hands the result
to divdiff.report as it is: a result dataclass directly, or a dict only
where no dataclass carries the report.  How a value is written is
decided in divdiff.report alone.
Diagnostics go to stderr only.  Exit codes: 0 success, 1 usage or parse
errors, 2 domain errors (duplicate knots, a rational-function pole, an
infeasible optimization) and failed internal checks.
"""

import argparse
import dataclasses
import functools
import re
import sys
from fractions import Fraction
from typing import Any, Optional

from .cascade import NonzeroAtOrder, polynomial_cascade
from .constraints import build_constraint_system, nullspace
from .differences import (
    FiniteDifferenceRequest,
    KnotValueList,
    check_equispaced_identity,
    divided_difference_direct,
    divided_difference_recursive,
    finite_difference,
)
from .errors import DomainEvaluationError, DuplicateKnotError, ParseError, PoleError
from .extremal import min_lipschitz_unit_norm
from .funcs import PolynomialFunc, parse_funcspec
from .interpolation import EquispacedSample, lagrange_equispaced, leading_coefficient
from .probes import averaging_probe, proof_walkthrough, telescope_shift_identity
from .rational import parse_rational
from .report import Report, render_csv, render_json

DEFAULT_MAX_N = 12

Outcome = tuple[Report, int, Optional[str]]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as a flag unless
        # it matches this pattern, and its own pattern knows only integers
        # and decimals.  No option name here starts with a digit, so a
        # minus followed by a digit always starts a value: "--x -1/10" and
        # "--knots -1,0,1" parse, and the value's own parser judges it.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with status 2 on usage errors; our contract is 1.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def rational(text: str) -> Fraction:
    return parse_rational(text)


def _rational_list(text: str, what: str) -> tuple[Fraction, ...]:
    items = [item.strip() for item in text.split(",")]
    if not items or any(not item for item in items):
        raise ParseError(f"{what} must be a comma-separated list of rationals")
    return tuple(parse_rational(item) for item in items)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing leaves no state in the parser, so one instance serves every
    call of main in a process.
    """
    parser = _Parser(
        prog="divdiff",
        description="Exact divided differences, equispaced interpolation, "
        "and difference-constraint exploration.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, description: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=description, description=description)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        return p

    def func_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--func",
            required=True,
            help="function spec: poly:a0,a1,..., ratfun:a0,...;b0,..., or pl:<path>",
        )
        p.add_argument(
            "--extend-zero",
            action="store_true",
            help="treat the function as 0 outside [0, 1]",
        )

    p = command("eval", "divided difference at explicit knots")
    p.add_argument("--knots", required=True, help="comma-separated rational knots")
    p.add_argument("--values", required=True, help="comma-separated rational values")

    p = command("uniform", "divided difference at the equispaced knots k/n")
    func_arg(p)
    p.add_argument("--n", type=int, required=True)

    p = command("fd", "forward finite difference of order n with step h")
    func_arg(p)
    p.add_argument("--x", type=rational, required=True)
    p.add_argument("--h", type=rational, required=True)
    p.add_argument("--n", type=int, required=True)

    p = command(
        "identity",
        "equispaced divided difference against the scaled finite difference",
    )
    func_arg(p)
    p.add_argument("--n", type=int, required=True)

    p = command("interp", "equispaced interpolating polynomial and leading coefficient")
    func_arg(p)
    p.add_argument("--n", type=int, required=True)

    p = command("cascade", "difference cascade locating the degree of a polynomial")
    p.add_argument("--func", required=True, help="polynomial spec poly:a0,a1,...")

    p = command("nullspace", "null space of the difference constraint system")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--max-N", type=int, help=f"raise the N cap (default {DEFAULT_MAX_N})")

    p = command("minlip", "least Lipschitz constant among unit-size solutions")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--max-N", type=int, help=f"raise the N cap (default {DEFAULT_MAX_N})")

    p = command("probe", "averaged forward differences of a zero-extended function")
    func_arg(p)
    p.add_argument("--x", type=rational, required=True)
    p.add_argument("--h", type=rational, required=True)
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--N", type=int, help="single shift count")
    group.add_argument("--Nmax", type=int, help="sweep N = 1, 2, 4, ... up to this value")

    p = command("telescope", "exact reindexing identity for shifted sums")
    func_arg(p)
    p.add_argument("--x", type=rational, required=True)
    p.add_argument("--h", type=rational, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--N", type=int, required=True)

    p = command("walkthrough", "full exact trace of the averaged-defect identity")
    func_arg(p)
    p.add_argument("--x", type=rational, required=True)
    p.add_argument("--h", type=rational, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)

    return parser


def _inputs(args: argparse.Namespace, *names: str) -> dict[str, Any]:
    """The named command-line values, for a report's inputs block."""
    return {name: getattr(args, name) for name in names}


def _cmd_eval(args: argparse.Namespace) -> Outcome:
    knots = _rational_list(args.knots, "--knots")
    values = _rational_list(args.values, "--values")
    if len(knots) != len(values):
        raise ParseError(
            f"got {len(knots)} knots but {len(values)} values; they must match"
        )
    kv = KnotValueList(tuple(zip(knots, values)))
    direct = divided_difference_direct(kv)
    recursive = divided_difference_recursive(kv)
    results = {
        "order": kv.order,
        "direct": direct,
        "recursive": recursive,
        "equal": direct == recursive,
    }
    return Report("eval", {"knots": knots, "values": values}, results), 0, None


def _cmd_uniform(args: argparse.Namespace) -> Outcome:
    f = parse_funcspec(args.func, args.extend_zero)
    if args.n < 0:
        raise ParseError("--n must be nonnegative")
    value = divided_difference_direct(KnotValueList.equispaced(f, args.n))
    results = {"n": args.n, "divided_difference": value}
    return Report("uniform", _inputs(args, "func", "n"), results), 0, None


def _cmd_fd(args: argparse.Namespace) -> Outcome:
    f = parse_funcspec(args.func, args.extend_zero)
    value = finite_difference(FiniteDifferenceRequest(f=f, x=args.x, h=args.h, n=args.n))
    results = {"n": args.n, "x": args.x, "h": args.h, "value": value}
    return Report("fd", _inputs(args, "func", "x", "h", "n"), results), 0, None


def _cmd_identity(args: argparse.Namespace) -> Outcome:
    f = parse_funcspec(args.func, args.extend_zero)
    check = check_equispaced_identity(f, args.n)
    return Report("identity", _inputs(args, "func", "n"), check), 0, None


def _cmd_interp(args: argparse.Namespace) -> Outcome:
    f = parse_funcspec(args.func, args.extend_zero)
    if args.n < 0:
        raise ParseError("--n must be nonnegative")
    q = lagrange_equispaced(EquispacedSample.from_function(f, args.n))
    lead = leading_coefficient(q, args.n)
    results = {
        "n": args.n,
        "coefficients": q,
        "degree": "-inf" if q.is_zero else q.degree,
        "leading": lead,
        "degree_reduced": lead == 0,
    }
    return Report("interp", _inputs(args, "func", "n"), results), 0, None


def _cmd_cascade(args: argparse.Namespace) -> Outcome:
    f = parse_funcspec(args.func, False)
    if not isinstance(f, PolynomialFunc):
        raise ParseError("cascade works on polynomials; pass --func poly:a0,a1,...")
    result = polynomial_cascade(f.poly)
    verdict = result.verdict
    results = {
        "verdict": type(verdict).__name__,
        "order": verdict.order if isinstance(verdict, NonzeroAtOrder) else None,
        "rows": result.checks,
    }
    return Report("cascade", _inputs(args, "func"), results), 0, None


def _capped_N(args: argparse.Namespace) -> int:
    cap = args.max_N if args.max_N is not None else DEFAULT_MAX_N
    if args.N < 1:
        raise ParseError("--N must be at least 1")
    if args.N > cap:
        raise ParseError(f"N={args.N} exceeds the cap {cap}; raise it with --max-N")
    return args.N


def _cmd_nullspace(args: argparse.Namespace) -> Outcome:
    result = nullspace(build_constraint_system(_capped_N(args)))
    results = {
        "N": result.N,
        "L": result.L,
        "rank": result.rank,
        "dimension": result.dimension,
        "forced_zero_points": result.forced_zero_points,
        "basis": result.vectors,
    }
    return Report("nullspace", _inputs(args, "N"), results), 0, None


def _cmd_minlip(args: argparse.Namespace) -> Outcome:
    N = _capped_N(args)
    result = min_lipschitz_unit_norm(N)
    report = Report("minlip", _inputs(args, "N"), result)
    if result.status == "infeasible":
        return report, 2, f"minlip: no solution with sup norm 1 exists for N={N}"
    return report, 0, None


def _cmd_probe(args: argparse.Namespace) -> Outcome:
    if not args.extend_zero:
        raise ParseError("probe requires --extend-zero (f must vanish outside [0, 1])")
    f = parse_funcspec(args.func, True)
    if not 0 <= args.x < 1:
        raise ParseError("--x must lie in [0, 1)")
    if args.N is not None:
        if args.N < 1:
            raise ParseError("--N must be at least 1")
        counts = [args.N]
    else:
        if args.Nmax < 1:
            raise ParseError("--Nmax must be at least 1")
        counts = []
        N = 1
        while N <= args.Nmax:
            counts.append(N)
            N *= 2
    rows = []
    cutoff = 0
    for N in counts:
        probe = averaging_probe(f, args.x, args.h, args.n, N)
        cutoff = probe.cutoff
        rows.append(
            {
                "N": N,
                "average": probe.average,
                "residual": probe.residual,
                "bound": probe.bound,
            }
        )
    results = {"n": args.n, "h": args.h, "x": args.x, "cutoff": cutoff, "rows": rows}
    return Report("probe", _inputs(args, "func", "x", "h", "n"), results), 0, None


def _cmd_telescope(args: argparse.Namespace) -> Outcome:
    f = parse_funcspec(args.func, args.extend_zero)
    check = telescope_shift_identity(f, args.x, args.n, args.j, args.h, args.N)
    inputs = _inputs(args, "func", "x", "h", "n", "j", "N")
    return Report("telescope", inputs, check), 0, None


def _cmd_walkthrough(args: argparse.Namespace) -> Outcome:
    if not args.extend_zero:
        raise ParseError(
            "walkthrough requires --extend-zero (f must vanish outside [0, 1])"
        )
    f = parse_funcspec(args.func, True)
    if not 0 <= args.x < 1:
        raise ParseError("--x must lie in [0, 1)")
    w = proof_walkthrough(f, args.n, args.h, args.N, args.x)
    # The (j, term) pairs are written as records, not as bare pairs.
    terms = tuple({"j": j, "term": term} for j, term in w.interp_limit_terms)
    results = dataclasses.replace(w, interp_limit_terms=terms)
    inputs = _inputs(args, "func", "x", "h", "n", "N")
    return Report("walkthrough", inputs, results), 0, None


_HANDLERS = {
    "eval": _cmd_eval,
    "uniform": _cmd_uniform,
    "fd": _cmd_fd,
    "identity": _cmd_identity,
    "interp": _cmd_interp,
    "cascade": _cmd_cascade,
    "nullspace": _cmd_nullspace,
    "minlip": _cmd_minlip,
    "probe": _cmd_probe,
    "telescope": _cmd_telescope,
    "walkthrough": _cmd_walkthrough,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code, diagnostic = _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"divdiff: error: {exc}", file=sys.stderr)
        return 1
    except (DuplicateKnotError, PoleError, DomainEvaluationError) as exc:
        print(f"divdiff: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # Raised by the exact self-checks (LP status, residual
        # recomputation, fraction-free division), never by bad input.
        print(f"divdiff: error: internal check failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"divdiff: error: {exc}", file=sys.stderr)
        return 1
    text = render_json(report) if args.format == "json" else render_csv(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"divdiff: error: cannot write {args.out}: {reason}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    if diagnostic:
        print(diagnostic, file=sys.stderr)
    return code
