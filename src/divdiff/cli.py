"""Command-line front end.

One subcommand per library operation; every run emits a single Report
(JSON by default, CSV with --format csv) on stdout or to --out.  A
subcommand is one entry of COMMANDS: its help line, its options in
declaration order and a handler.  The handler calls the library and
returns the results as they are: a result dataclass directly, or a dict
only where no dataclass carries the report.  How a value is written is
decided in divdiff.report alone.

run does the shared work for every entry: it applies the checks the
entry switches on (--extend-zero and a base point in [0, 1), an option's
least value, the N cap of --max-N), parses --func, builds the Report
with the required options as its inputs, and turns an infeasible result
into exit 2 with a diagnostic.  main parses, renders and writes.
Diagnostics go to stderr only.  Exit codes: 0 success, 1 usage or parse
errors and a report or help that cannot be written, 2 domain errors
(duplicate knots, a rational-function pole, an infeasible optimization)
and failed internal checks.
"""

import argparse
import contextlib
import dataclasses
import functools
import re
import sys
from fractions import Fraction
from typing import IO, Any, Callable, Optional

from .cascade import CascadeResult, polynomial_cascade
from .constraints import build_constraint_system, nullspace
from .differences import (
    KnotValueList,
    check_equispaced_identity,
    divided_difference_direct,
    divided_difference_recursive,
    finite_difference,
)
from .errors import DomainEvaluationError, DuplicateKnotError, ParseError, PoleError
from .extremal import min_lipschitz_unit_norm
from .funcs import PolynomialFunc, parse_funcspec
from .interpolation import lagrange_equispaced, leading_coefficient
from .probes import averaging_sweep, proof_walkthrough, telescope_shift_identity
from .rational import parse_rational
from .report import Report, render_csv, render_json

DEFAULT_MAX_N = 12


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

    # argparse writes help without a flush and ignores a failed write; help
    # on stdout takes the report's path, so a failure is exit 1.
    def print_help(self, file: Optional[IO[str]] = None) -> None:
        if file is not None:
            super().print_help(file)
        elif not _write(self.format_help(), None):
            self.exit(1)


def _write(text: str, out: Optional[str]) -> bool:
    """Write text to the file out, or to stdout and flush it.

    A failure is one line on stderr and False.
    """
    try:
        if out is not None:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if out is None:
            # Python flushes stdout again at exit; a closed stream is
            # skipped there, so the failure is reported once, here.
            with contextlib.suppress(OSError):
                sys.stdout.close()
        reason = exc.strerror or exc
        where = "<stdout>" if out is None else out
        print(f"divdiff: error: cannot write {where}: {reason}", file=sys.stderr)
        return False
    return True


def rational(text: str) -> Fraction:
    return parse_rational(text)


def _rational_list(text: str, what: str) -> tuple[Fraction, ...]:
    items = [item.strip() for item in text.split(",")]
    if not items or any(not item for item in items):
        raise ParseError(f"{what} must be a comma-separated list of rationals")
    return tuple(parse_rational(item) for item in items)


@dataclasses.dataclass(frozen=True)
class Arg:
    """One option of a subcommand; type bool declares an on/off flag.

    Required options are the report's inputs; exclusive ones form the
    subcommand's required mutually exclusive group.  run checks least
    when the option is given, and applies parse to the text and flag, so
    that a malformed value is a one-line error, not a usage error.
    """

    flag: str
    type: Optional[Callable[[str], Any]] = None
    help: Optional[str] = None
    required: bool = True
    least: Optional[int] = None
    parse: Optional[Callable[[str, str], Any]] = None
    exclusive: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclasses.dataclass(frozen=True)
class Command:
    """A subcommand: its help line, options in declaration order and a
    handler, which takes the parsed arguments and --func (None without
    one) and returns the results.
    """

    help: str
    options: tuple[Arg, ...]
    handler: Callable[[argparse.Namespace, Any], Any]
    zero_extended: bool = False  # needs --extend-zero and --x in [0, 1)


FUNC = Arg("--func", help="function spec: poly:a0,a1,..., ratfun:a0,...;b0,..., or pl:<path>")
EXTEND_ZERO = Arg("--extend-zero", bool, "treat the function as 0 outside [0, 1]", required=False)
X, H, J = Arg("--x", rational), Arg("--h", rational), Arg("--j", int)
ORDER, NONNEGATIVE_ORDER = Arg("--n", int), Arg("--n", int, least=0)
SHIFTS, LATTICE_N = Arg("--N", int), Arg("--N", int, least=1)
MAX_N = Arg(
    "--max-N", int, f"raise the N cap (default {DEFAULT_MAX_N})", required=False, least=1
)


def _knot_differences(args: argparse.Namespace, f: Any) -> dict[str, Any]:
    kv = KnotValueList(args.knots, args.values)
    direct = divided_difference_direct(kv)
    recursive = divided_difference_recursive(kv)
    return {"order": kv.order, "direct": direct, "recursive": recursive,
            "equal": direct == recursive}


def _interpolant(args: argparse.Namespace, f: Any) -> dict[str, Any]:
    q = lagrange_equispaced(KnotValueList.equispaced(f, args.n).values)
    lead = leading_coefficient(q, args.n)
    return {"n": args.n, "coefficients": q, "degree": "-inf" if q.is_zero else q.degree,
            "leading": lead, "degree_reduced": lead == 0}


def _degree_search(args: argparse.Namespace, f: Any) -> CascadeResult:
    if not isinstance(f, PolynomialFunc):
        raise ParseError("cascade works on polynomials; pass --func poly:a0,a1,...")
    return polynomial_cascade(f.poly)


def _shift_averages(args: argparse.Namespace, f: Any) -> dict[str, Any]:
    # One shift count, or the sweep N = 1, 2, 4, ... up to --Nmax.
    counts = [args.N] if args.N is not None else [2**k for k in range(args.Nmax.bit_length())]
    averages = averaging_sweep(f, args.x, args.h, args.n, counts)
    rows = [{"N": N, "average": a.average, "residual": a.residual, "bound": a.bound}
            for N, a in zip(counts, averages)]
    return {"n": args.n, "h": args.h, "x": args.x, "cutoff": averages[-1].cutoff, "rows": rows}


COMMANDS = {
    "eval": Command(
        "divided difference at explicit knots",
        (Arg("--knots", help="comma-separated rational knots", parse=_rational_list),
         Arg("--values", help="comma-separated rational values", parse=_rational_list)),
        _knot_differences),
    "uniform": Command(
        "divided difference at the equispaced knots k/n", (FUNC, EXTEND_ZERO, NONNEGATIVE_ORDER),
        lambda args, f: {"n": args.n, "divided_difference": divided_difference_direct(
            KnotValueList.equispaced(f, args.n))}),
    "fd": Command(
        "forward finite difference of order n with step h", (FUNC, EXTEND_ZERO, X, H, ORDER),
        lambda args, f: {"n": args.n, "x": args.x, "h": args.h,
                         "value": finite_difference(f, args.x, args.h, args.n)}),
    "identity": Command(
        "equispaced divided difference against the scaled finite difference",
        (FUNC, EXTEND_ZERO, ORDER), lambda args, f: check_equispaced_identity(f, args.n)),
    "interp": Command(
        "equispaced interpolating polynomial and leading coefficient",
        (FUNC, EXTEND_ZERO, NONNEGATIVE_ORDER), _interpolant),
    "cascade": Command(
        "difference cascade locating the degree of a polynomial",
        (Arg("--func", help="polynomial spec poly:a0,a1,..."),), _degree_search),
    "nullspace": Command(
        "null space of the difference constraint system", (LATTICE_N, MAX_N),
        lambda args, f: nullspace(build_constraint_system(args.N))),
    "minlip": Command(
        "least Lipschitz constant among unit-size solutions", (LATTICE_N, MAX_N),
        lambda args, f: min_lipschitz_unit_norm(args.N)),
    "probe": Command(
        "averaged forward differences of a zero-extended function",
        (FUNC, EXTEND_ZERO, X, H, ORDER,
         Arg("--N", int, "single shift count", required=False, least=1, exclusive=True),
         Arg("--Nmax", int, "sweep N = 1, 2, 4, ... up to this value", required=False, least=1,
             exclusive=True)),
        _shift_averages, zero_extended=True),
    "telescope": Command(
        "exact reindexing identity for shifted sums", (FUNC, EXTEND_ZERO, X, H, ORDER, J, SHIFTS),
        lambda args, f: telescope_shift_identity(f, args.x, args.n, args.j, args.h, args.N)),
    "walkthrough": Command(
        "full exact trace of the averaged-defect identity",
        (FUNC, EXTEND_ZERO, X, H, ORDER, SHIFTS),
        lambda args, f: proof_walkthrough(f, args.n, args.h, args.N, args.x), zero_extended=True),
}


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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        group = None
        for arg in command.options:
            target = p
            if arg.exclusive:
                target = group = group or p.add_mutually_exclusive_group(required=True)
            if arg.type is bool:
                target.add_argument(arg.flag, action="store_true", help=arg.help)
            else:
                target.add_argument(arg.flag, type=arg.type, required=arg.required, help=arg.help)
    return parser


def run(args: argparse.Namespace) -> tuple[Report, int, Optional[str]]:
    """Run the parsed subcommand: its report, exit code and stderr diagnostic.

    An option's parse replaces its text in args.  Bad input raises
    ParseError; the library's own errors propagate.
    """
    command = COMMANDS[args.command]
    if command.zero_extended and not args.extend_zero:
        raise ParseError(f"{args.command} requires --extend-zero (f must vanish outside [0, 1])")
    f = None
    if getattr(args, "func", None) is not None:
        f = parse_funcspec(args.func, getattr(args, "extend_zero", False))
    if command.zero_extended and not 0 <= args.x < 1:
        raise ParseError("--x must lie in [0, 1)")
    for arg in command.options:
        value = getattr(args, arg.dest)
        if arg.parse:
            setattr(args, arg.dest, arg.parse(value, arg.flag))
        elif arg.least is not None and value is not None and value < arg.least:
            bound = "nonnegative" if arg.least == 0 else f"at least {arg.least}"
            raise ParseError(f"{arg.flag} must be {bound}")
    if MAX_N in command.options:
        cap = args.max_N if args.max_N is not None else DEFAULT_MAX_N
        if args.N > cap:
            raise ParseError(f"N={args.N} exceeds the cap {cap}; raise it with --max-N")
    results = command.handler(args, f)
    inputs = {arg.dest: getattr(args, arg.dest) for arg in command.options if arg.required}
    report = Report(args.command, inputs, results)
    if getattr(results, "status", None) == "infeasible":
        diagnostic = f"{args.command}: no solution with sup norm 1 exists for N={args.N}"
        return report, 2, diagnostic
    return report, 0, None


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code, diagnostic = run(args)
    except (DuplicateKnotError, PoleError, DomainEvaluationError) as exc:
        print(f"divdiff: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # Raised by the exact self-checks (LP status, residual
        # recomputation, fraction-free division), never by bad input.
        print(f"divdiff: error: internal check failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ParseError among them
        print(f"divdiff: error: {exc}", file=sys.stderr)
        return 1
    text = render_json(report) if args.format == "json" else render_csv(report)
    if not _write(text, args.out):
        return 1
    if diagnostic:
        print(diagnostic, file=sys.stderr)
    return code
