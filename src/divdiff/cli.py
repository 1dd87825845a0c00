"""Command-line front end.

One subcommand per library operation; every run emits a single Report
(JSON by default, CSV with --format csv) on stdout or to --out.  A
subcommand is one entry of COMMANDS: its help line, its options in
declaration order and a handler.  The handler calls the library and
returns the results as they are: a result dataclass directly, or a dict
only where no dataclass carries the report.  How a value is written is
decided in divdiff.report alone.

run does the shared work for every entry: it reads each option's text
with the one grammar of divdiff.rational (ASCII digits only; a malformed
value is one line naming its flag), applies the checks the entry
switches on (an option's least value, --extend-zero and a base point in
[0, 1], the N cap of --max-N), parses --func, builds the Report with the
required options as its inputs, and turns an infeasible result into
exit 2 with a diagnostic.  main parses, renders and writes: the same
UTF-8 bytes on stdout and to --out, whatever the locale, written in
slices of the report.  A plain argv is read in one pass over its
subcommand's options, every other argv by argparse (_parse), to the
same namespace.  Diagnostics go to stderr only.  Exit codes: 0 success,
1 usage or parse errors and a report or help that cannot be written,
2 domain errors (duplicate knots, a rational-function pole, an
infeasible optimization), failed internal checks, an interrupt, a run
out of memory and one past a size limit (an OverflowError).
"""

import argparse
import contextlib
import dataclasses
import functools
import re
import sys
from typing import IO, Any, Callable, Optional

from .cascade import CascadeResult, polynomial_cascade
from .constraints import build_constraint_system, nullspace
from .differences import (
    KnotValueList,
    _direct_sum,
    _equispaced_pairs,
    check_equispaced_identity,
    divided_difference_direct,
    divided_difference_recursive,
    finite_difference,
)
from .errors import DomainEvaluationError, DuplicateKnotError, ParseError, PoleError
from .extremal import min_lipschitz_unit_norm
from .funcs import PolynomialFunc, parse_funcspec
from .interpolation import _equispaced_interpolant, leading_coefficient
from .probes import averaging_probe, averaging_sweep, proof_walkthrough, telescope_shift_identity
from .rational import parse_integer, parse_rational, parse_rationals
from .report import Report, render_csv, render_json

DEFAULT_MAX_N = 12
_SLICE = 1 << 20  # characters of a report encoded and written at a time


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


def _encode_into(fh: IO[bytes], text: str) -> None:
    # Each code point encodes alone, so slices give the bytes of the whole
    # text without holding a second copy of it.
    for start in range(0, len(text), _SLICE):
        fh.write(text[start:start + _SLICE].encode("utf-8", "surrogateescape"))


def _write(text: str, out: Optional[str]) -> bool:
    """Write text to the file out, or to stdout and flush it.

    Both get its UTF-8 bytes as they are, whatever the locale, a path's
    undecodable bytes (surrogate escapes) included; a stdout with no byte
    layer takes the text.  A failure is one line on stderr and False.
    """
    try:
        if out is not None:
            with open(out, "wb") as fh:
                _encode_into(fh, text)
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            _encode_into(sys.stdout.buffer, text)
            sys.stdout.buffer.flush()
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


@dataclasses.dataclass(frozen=True)
class Arg:
    """One option of a subcommand; type bool declares an on/off flag.

    Required options are the report's inputs; exclusive ones form the
    subcommand's required mutually exclusive group; an option with
    choices takes only those texts, and the first when it is not given.
    The parse keeps the text; when the option is given, run converts it
    with type and checks least, so that a malformed value is a one-line
    error naming the flag.
    """

    flag: str
    type: Optional[Callable[[str], Any]] = None
    help: Optional[str] = None
    required: bool = True
    least: Optional[int] = None
    exclusive: bool = False
    choices: Optional[tuple[str, ...]] = None

    @functools.cached_property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    @functools.cached_property
    def default(self) -> Any:
        if self.choices:
            return self.choices[0]
        return False if self.type is bool else None


@dataclasses.dataclass(frozen=True)
class Command:
    """A subcommand: its help line, options in declaration order and a
    handler, which takes the parsed arguments and --func (None without
    one) and returns the results.
    """

    help: str
    options: tuple[Arg, ...]
    handler: Callable[[argparse.Namespace, Any], Any]
    zero_extended: bool = False  # needs --extend-zero and --x in [0, 1]


FUNC = Arg("--func", help="function spec: poly:a0,a1,..., ratfun:a0,...;b0,..., or pl:<path>")
EXTEND_ZERO = Arg("--extend-zero", bool, "treat the function as 0 outside [0, 1]", required=False)
X, H, J = Arg("--x", parse_rational), Arg("--h", parse_rational), Arg("--j", parse_integer)
ORDER, NONNEGATIVE_ORDER = Arg("--n", parse_integer), Arg("--n", parse_integer, least=0)
SHIFTS, LATTICE_N = Arg("--N", parse_integer), Arg("--N", parse_integer, least=1)
MAX_N = Arg("--max-N", parse_integer, f"raise the N cap (default {DEFAULT_MAX_N})",
            required=False, least=1)
# The options every subcommand takes before its own.
_SHARED = (Arg("--format", required=False, choices=("json", "csv")),
           Arg("--out", help="write the report to this path instead of stdout", required=False))


def _knot_differences(args: argparse.Namespace, f: Any) -> dict[str, Any]:
    kv = KnotValueList(args.knots, args.values)
    direct = divided_difference_direct(kv)
    recursive = divided_difference_recursive(kv)
    return {"order": kv.order, "direct": direct, "recursive": recursive,
            "equal": direct == recursive}


def _equispaced_difference(args: argparse.Namespace, f: Any) -> dict[str, Any]:
    # The knots k/n are the integers k over the scale max(n, 1).
    pairs = _equispaced_pairs(f, args.n)
    return {"n": args.n,
            "divided_difference": _direct_sum(list(range(args.n + 1)), pairs, max(args.n, 1))}


def _interpolant(args: argparse.Namespace, f: Any) -> dict[str, Any]:
    _, q = _equispaced_interpolant(f, args.n)
    lead = leading_coefficient(q, args.n)
    return {"n": args.n, "coefficients": q, "degree": "-inf" if q.is_zero else q.degree,
            "leading": lead, "degree_reduced": lead == 0}


def _degree_search(args: argparse.Namespace, f: Any) -> CascadeResult:
    if not isinstance(f, PolynomialFunc):
        raise ParseError("cascade works on polynomials; pass --func poly:a0,a1,...")
    return polynomial_cascade(f.poly)


def _shift_averages(args: argparse.Namespace, f: Any) -> dict[str, Any]:
    # One shift count, or the sweep N = 1, 2, 4, ... up to --Nmax over one shared memo.
    if args.N is not None:
        averages = [averaging_probe(f, args.x, args.h, args.n, args.N)]
    else:
        counts = [2**k for k in range(args.Nmax.bit_length())]
        averages = averaging_sweep(f, args.x, args.h, args.n, counts)
    rows = [{"N": a.N, "average": a.average, "residual": a.residual, "bound": a.bound}
            for a in averages]
    return {"n": args.n, "h": args.h, "x": args.x, "cutoff": averages[-1].cutoff, "rows": rows}


COMMANDS = {
    "eval": Command(
        "divided difference at explicit knots",
        (Arg("--knots", parse_rationals, "comma-separated rational knots"),
         Arg("--values", parse_rationals, "comma-separated rational values")),
        _knot_differences),
    "uniform": Command(
        "divided difference at the equispaced knots k/n", (FUNC, EXTEND_ZERO, NONNEGATIVE_ORDER),
        _equispaced_difference),
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
         Arg("--N", parse_integer, "single shift count", required=False, least=1,
             exclusive=True),
         Arg("--Nmax", parse_integer, "sweep N = 1, 2, 4, ... up to this value",
             required=False, least=1, exclusive=True)),
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
def build_parser() -> _Parser:
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
        group = None
        for arg in _SHARED + command.options:
            target = p
            if arg.exclusive:
                target = group = group or p.add_mutually_exclusive_group(required=True)
            if arg.type is bool:
                target.add_argument(arg.flag, action="store_true", help=arg.help)
            else:
                target.add_argument(arg.flag, required=arg.required, help=arg.help,
                                    choices=arg.choices, default=arg.default)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Read argv as ``build_parser().parse_args(argv)`` does.

    A plain argv (see _plain) is read in one pass over its subcommand's
    options; every other argv, with help, usage errors, abbreviations and
    "--" among them, goes to argparse.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    given = _plain(command, argv[1:]) if command is not None else None
    if given is None:
        return build_parser().parse_args(argv)
    return argparse.Namespace(command=argv[0], **given)


def _plain(command: Command, tokens: list[str]) -> Optional[dict[str, Any]]:
    """Every option's text by dest, argparse's default where not given, or
    None unless the tokens are plain.

    Plain tokens name each option at most once and in full, as "--flag
    value" or "--flag=value" (a bool flag alone); each value is nonempty
    and one of the option's choices, and does not start with "-" in the
    space form nor is "--" in the "=" form; every required option is
    given, and one of an exclusive pair.  argparse takes an "=" value
    that starts with "-" as it is, but "--" as no value before 3.13.
    """
    options = {arg.flag: arg for arg in _SHARED + command.options}
    given: dict[str, Any] = {}
    rest = iter(tokens)
    for token in rest:
        flag, eq, value = token.partition("=")
        arg = options.get(flag)
        if arg is None or arg.dest in given:
            return None
        if arg.type is bool:
            if eq:
                return None
            given[arg.dest] = True
            continue
        if not eq:
            value = next(rest, "")
        dash = value == "--" if eq else value.startswith("-")
        if not value or dash or arg.choices and value not in arg.choices:
            return None
        given[arg.dest] = value
    if any(arg.required and arg.dest not in given for arg in command.options):
        return None
    exclusive = [arg.dest in given for arg in command.options if arg.exclusive]
    if exclusive and sum(exclusive) != 1:
        return None
    return {arg.dest: given.get(arg.dest, arg.default) for arg in options.values()}


def run(args: argparse.Namespace) -> tuple[Report, int, Optional[str]]:
    """Run the parsed subcommand: its report, exit code and stderr diagnostic.

    Each given option's converted value replaces its text in args.  Bad
    input raises ParseError; the library's own errors propagate.
    """
    command = COMMANDS[args.command]
    for arg in command.options:
        value = getattr(args, arg.dest)
        if value is None or arg.type in (None, bool):
            continue
        try:
            value = arg.type(value)
        except ValueError as exc:  # ParseError, or int()'s digit limit
            raise ParseError(f"{arg.flag}: {exc}") from None
        if arg.least is not None and value < arg.least:
            bound = "nonnegative" if arg.least == 0 else f"at least {arg.least}"
            raise ParseError(f"{arg.flag} must be {bound}")
        setattr(args, arg.dest, value)
    if command.zero_extended and not args.extend_zero:
        raise ParseError(f"{args.command} requires --extend-zero (f must vanish outside [0, 1])")
    f = None
    if getattr(args, "func", None) is not None:
        try:
            f = parse_funcspec(args.func, getattr(args, "extend_zero", False))
        except ValueError as exc:
            raise ParseError(f"--func: {exc}") from None
    if command.zero_extended and not 0 <= args.x <= 1:
        raise ParseError("--x must lie in [0, 1]")
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
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code, diagnostic = run(args)
        text = render_json(report) if args.format == "json" else render_csv(report)
        if not _write(text, args.out):
            return 1
    except (DuplicateKnotError, PoleError, DomainEvaluationError) as exc:
        print(f"divdiff: error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a size limit, not a failed check
        print(f"divdiff: error: {args.command} exceeds a size limit: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # Raised by the exact self-checks (LP status and certificate,
        # residual recomputation, null-space certificate), never by bad input.
        print(f"divdiff: error: internal check failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ParseError among them
        print(f"divdiff: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("divdiff: interrupted", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"divdiff: error: {args.command} ran out of memory", file=sys.stderr)
        return 2
    if diagnostic:
        print(diagnostic, file=sys.stderr)
    return code
