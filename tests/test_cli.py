"""End-to-end command-line behaviour: reports, formats, and exit codes."""

import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from divdiff import (
    CascadeResult,
    EquispacedIdentityCheck,
    KnotValueList,
    MinLipschitzResult,
    NullspaceReport,
    TelescopeCheck,
    WalkthroughReport,
    build_constraint_system,
    check_equispaced_identity,
    cli,
    constraints,
    divided_difference_direct,
    extremal,
    min_lipschitz_unit_norm,
    nullspace,
    parse_funcspec,
    parse_rational,
    polynomial_cascade,
    proof_walkthrough,
    telescope_shift_identity,
)
from divdiff.cli import main

from golden.check import README_COMMANDS
from util import (
    corrupting_kernel_basis,
    corrupting_solve_lp,
    corrupting_warm_tableau,
    misreporting_kernel_basis,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_eval_cross_checks_both_algorithms(capsys):
    doc = run_json(
        capsys, "eval", "--knots", "0,1/2,1", "--values", "0,1/4,1"
    )
    assert doc["command"] == "eval"
    assert doc["results"]["order"] == 2
    assert doc["results"]["direct"] == "1"
    assert doc["results"]["recursive"] == "1"
    assert doc["results"]["equal"] is True


def test_uniform_matches_eval(capsys):
    doc = run_json(capsys, "uniform", "--func", "poly:0,0,1", "--n", "2")
    assert doc["results"]["divided_difference"] == "1"


def test_fd_fixture(capsys):
    doc = run_json(
        capsys, "fd", "--func", "poly:0,0,1", "--x", "0", "--h", "1/2", "--n", "2"
    )
    assert doc["results"]["value"] == "1/2"
    assert doc["results"]["value_decimal"] == "0.5"


def test_identity_fixture(capsys):
    doc = run_json(capsys, "identity", "--func", "poly:0,0,1", "--n", "2")
    assert doc["results"]["lhs"] == "1"
    assert doc["results"]["rhs"] == "1"
    assert doc["results"]["equal"] is True


def test_identity_with_rational_function(capsys):
    doc = run_json(capsys, "identity", "--func", "ratfun:1;1,0,25", "--n", "6")
    assert doc["results"]["equal"] is True
    assert doc["results"]["lhs"] == "-691405875000/28167484501"


def test_interp_reports_coefficients(capsys):
    doc = run_json(capsys, "interp", "--func", "poly:0,-1,0,1", "--n", "3")
    assert doc["results"]["coefficients"] == ["0", "-1", "0", "1"]
    assert doc["results"]["degree"] == 3
    assert doc["results"]["leading"] == "1"
    assert doc["results"]["degree_reduced"] is False


def test_interp_degenerate_interpolant(capsys):
    # x(x-1)(x-1/2) vanishes on the order-2 knots
    doc = run_json(capsys, "interp", "--func", "poly:0,1/2,-3/2,1", "--n", "2")
    assert doc["results"]["coefficients"] == []
    assert doc["results"]["degree"] == "-inf"
    assert doc["results"]["degree_reduced"] is True


def test_cascade_reports_descending_checks(capsys):
    doc = run_json(capsys, "cascade", "--func", "poly:0,-1,1")
    assert doc["results"]["verdict"] == "NonzeroAtOrder"
    assert doc["results"]["order"] == 2
    rows = doc["results"]["rows"]
    assert [row["order"] for row in rows] == [2, 1, 0]
    assert rows[0]["value"] == "1/2"


def test_cascade_zero_polynomial(capsys):
    doc = run_json(capsys, "cascade", "--func", "poly:0")
    assert doc["results"]["verdict"] == "ZeroPolynomial"
    assert doc["results"]["order"] is None
    assert doc["results"]["rows"] == []


def test_cascade_rejects_non_polynomial(capsys):
    code, out, err = run(capsys, "cascade", "--func", "ratfun:1;1,1")
    assert code == 1
    assert out == ""
    assert "poly" in err


def test_nullspace_fixture(capsys):
    doc = run_json(capsys, "nullspace", "--N", "3")
    results = doc["results"]
    assert results["L"] == 6
    assert results["rank"] == 4
    assert results["dimension"] == 3
    assert results["forced_zero_points"] == [0, 3, 6]
    assert len(results["basis"]) == 3
    for vec in results["basis"]:
        assert "0" not in vec and "3" not in vec and "6" not in vec


def test_minlip_fixture(capsys):
    doc = run_json(capsys, "minlip", "--N", "3")
    results = doc["results"]
    assert results["status"] == "optimal"
    assert results["value"] == "6"
    assert results["witness"]["1"] == "1"


def test_minlip_infeasible_still_reports(capsys):
    code, out, err = run(capsys, "minlip", "--N", "2")
    assert code == 2
    doc = json.loads(out)
    assert doc["results"]["status"] == "infeasible"
    assert doc["results"]["value"] is None
    assert "no solution" in err


def test_n_cap_blocks_large_runs(capsys):
    code, out, err = run(capsys, "nullspace", "--N", "13")
    assert code == 1
    assert out == ""
    assert "cap" in err
    # the cap itself is adjustable
    code, out, err = run(capsys, "minlip", "--N", "3", "--max-N", "2")
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["nullspace", "minlip"])
def test_n_cap_below_one_is_refused(capsys, command, cap):
    # not "N=3 exceeds the cap 0": no N at all is allowed under such a cap
    code, out, err = run(capsys, command, "--N", "3", "--max-N", cap)
    assert (code, out) == (1, "")
    assert err == "divdiff: error: --max-N must be at least 1\n"


def test_probe_requires_extension(capsys):
    code, out, err = run(
        capsys, "probe", "--func", "poly:1", "--x", "0", "--h", "1/4", "--n", "1",
        "--N", "2",
    )
    assert code == 1
    assert "extend-zero" in err


def test_probe_sweep(capsys, tmp_path):
    grid = tmp_path / "hat.csv"
    grid.write_text("L=2\n1,1\n")
    doc = run_json(
        capsys, "probe", "--func", f"pl:{grid}", "--extend-zero",
        "--x", "0", "--h", "1/4", "--n", "1", "--Nmax", "8",
    )
    rows = doc["results"]["rows"]
    assert [row["N"] for row in rows] == [1, 2, 4, 8]
    assert [row["residual"] for row in rows] == ["1/2", "3/4", "1/2", "1/4"]
    assert doc["results"]["cutoff"] == 4


def test_probe_single_n_and_csv(capsys):
    code, out, err = run(
        capsys, "probe", "--func", "poly:0,1", "--extend-zero",
        "--x", "1/2", "--h", "1/8", "--n", "2", "--N", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    blank = lines.index("")
    header = lines[blank + 1].split(",")
    assert header == [
        "N",
        "average",
        "average_decimal",
        "residual",
        "residual_decimal",
        "bound",
        "bound_decimal",
    ]


def test_probe_rejects_both_n_flags(capsys):
    code, out, err = run(
        capsys, "probe", "--func", "poly:1", "--extend-zero",
        "--x", "0", "--h", "1/4", "--n", "1", "--N", "2", "--Nmax", "4",
    )
    assert code == 1
    assert out == ""


def test_telescope_cli(capsys):
    doc = run_json(
        capsys, "telescope", "--func", "poly:1,1", "--extend-zero",
        "--x", "1/10", "--h", "1/100", "--n", "3", "--j", "3", "--N", "5",
    )
    assert doc["results"]["jprime"] == 2
    assert doc["results"]["equal"] is True
    assert parse_rational(doc["results"]["lhs"]) == parse_rational(
        doc["results"]["rhs"]
    )


def test_walkthrough_cli(capsys, tmp_path):
    grid = tmp_path / "hat.csv"
    grid.write_text("L=2\n1,1\n")
    doc = run_json(
        capsys, "walkthrough", "--func", f"pl:{grid}", "--extend-zero",
        "--x", "1/10", "--h", "1/8", "--n", "1", "--N", "8",
    )
    results = doc["results"]
    assert results["identity_equal"] is True
    assert results["residual"] == "9/160"
    assert results["note"]
    assert results["boundary"][0]["jprime"] == 1


def test_walkthrough_requires_extension(capsys):
    code, out, err = run(
        capsys, "walkthrough", "--func", "poly:0,1",
        "--x", "1/10", "--h", "1/8", "--n", "1", "--N", "8",
    )
    assert code == 1
    assert "extend-zero" in err


# Commands whose report is one library record: argv, the record's type
# and the library call with the same inputs.
RECORD_COMMANDS = [
    (["identity", "--func", "ratfun:1;1,0,25", "--n", "4"], EquispacedIdentityCheck,
     lambda: check_equispaced_identity(parse_funcspec("ratfun:1;1,0,25"), 4)),
    (["nullspace", "--N", "3"], NullspaceReport, lambda: nullspace(build_constraint_system(3))),
    (["minlip", "--N", "3"], MinLipschitzResult, lambda: min_lipschitz_unit_norm(3)),
    (["telescope", "--func", "poly:1,1", "--extend-zero", "--x", "1/10", "--h", "1/100",
      "--n", "3", "--j", "3", "--N", "5"], TelescopeCheck,
     lambda: telescope_shift_identity(
         parse_funcspec("poly:1,1", True), Fraction(1, 10), 3, 3, Fraction(1, 100), 5)),
    (["cascade", "--func", "poly:0,-1,1"], CascadeResult,
     lambda: polynomial_cascade(parse_funcspec("poly:0,-1,1").poly)),
    (["walkthrough", "--func", "poly:0,1,-1", "--extend-zero", "--x", "1/10", "--h", "1/8",
      "--n", "2", "--N", "8"], WalkthroughReport,
     lambda: proof_walkthrough(
         parse_funcspec("poly:0,1,-1", True), 2, Fraction(1, 8), 8, Fraction(1, 10))),
]


@pytest.mark.parametrize(
    "argv, record, library", RECORD_COMMANDS, ids=[argv[0] for argv, *_ in RECORD_COMMANDS]
)
def test_record_commands_report_the_library_value_as_it_is(argv, record, library):
    report, code, diagnostic = cli.run(cli.build_parser().parse_args(argv))
    assert (code, diagnostic) == (0, None)
    assert type(report.results) is record
    assert report.results == library()


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "uniform", "--func", "poly:0,1", "--n", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["divided_difference"] == "1"


def test_out_into_missing_directory_is_one_line_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "minlip", "--N", "3", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err == f"divdiff: error: cannot write {target}: No such file or directory\n"
    assert not target.exists()


def test_out_empty_path_is_one_line_error(capsys):
    # An empty path names no file; it must not fall back to stdout.
    code, out, err = run(capsys, "nullspace", "--N", "3", "--out", "")
    assert code == 1
    assert out == ""
    assert err == "divdiff: error: cannot write : No such file or directory\n"


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_closed_stdout_is_one_line_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["minlip", "--N", "3"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"divdiff: error: cannot write <stdout>: {os.strerror(errno.EPIPE)}\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    # A small report waits in the stdout buffer until the flush; a large
    # one fails in the write itself.
    [["uniform", "--func", "poly:0,0,1", "--n", "2"], ["nullspace", "--N", "9"]],
)
def test_stdout_on_a_full_device_is_one_line_error(argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "divdiff", *argv],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr == (
        f"divdiff: error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_help_on_a_full_device_is_one_line_error(unbuffered):
    # Buffered, the help waits for the flush at exit; unbuffered, the
    # write itself fails.  argparse alone exits 120 or 0 here.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "divdiff", "uniform", "--help"],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr == (
        f"divdiff: error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.parametrize(
    "callee, argv, exc",
    [
        ("min_lipschitz_unit_norm", ["minlip", "--N", "3"],
         ArithmeticError("unexpected LP status unbounded")),
        ("nullspace", ["nullspace", "--N", "3"],
         ArithmeticError("inexact division in fraction-free elimination")),
        ("averaging_sweep",
         ["probe", "--func", "poly:1", "--extend-zero", "--x", "0", "--h", "1/4",
          "--n", "1", "--N", "2"],
         ZeroDivisionError("Fraction(1, 0)")),
    ],
)
def test_internal_arithmetic_error_is_one_line_exit_two(
    capsys, monkeypatch, callee, argv, exc
):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, callee, fail)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"divdiff: error: internal check failed: {exc}\n"


def test_corrupted_null_vector_is_one_line_exit_two(capsys, monkeypatch):
    def add_one_to_a_pivot_entry(vector, free, pivot):
        vector[pivot] += 1

    monkeypatch.setattr(
        constraints, "kernel_basis", corrupting_kernel_basis(add_one_to_a_pivot_entry)
    )
    code, out, err = run(capsys, "nullspace", "--N", "4")
    assert code == 2
    assert out == ""
    assert err == (
        "divdiff: error: internal check failed: "
        "null vector of column 8 fails constraint row 3\n"
    )


def test_an_extra_pivot_is_one_line_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(constraints, "kernel_basis", misreporting_kernel_basis(True))
    code, out, err = run(capsys, "nullspace", "--N", "4")
    assert code == 2
    assert out == ""
    assert err == (
        "divdiff: error: internal check failed: "
        "the rows have rank below their 6 pivot columns\n"
    )


def test_lp_certificate_failure_is_one_line_exit_two(capsys, monkeypatch):
    def lower_the_value(result):
        return dataclasses.replace(result, value=result.value - 1)

    monkeypatch.setattr(extremal, "solve_lp", corrupting_solve_lp(lower_the_value))
    code, out, err = run(capsys, "minlip", "--N", "3")
    assert code == 2
    assert out == ""
    assert err == "divdiff: error: internal check failed: LP duality gap is not zero\n"


def test_corrupted_warm_dual_is_one_line_exit_two(capsys, monkeypatch):
    # At N = 5 the second relaxed LP is re-solved from the first one's basis.
    def negate_the_dual(result):
        return dataclasses.replace(result, dual=tuple(-y for y in result.dual))

    monkeypatch.setattr(extremal, "_Tableau", corrupting_warm_tableau(negate_the_dual))
    code, out, err = run(capsys, "minlip", "--N", "5")
    assert code == 2
    assert out == ""
    assert err == (
        "divdiff: error: internal check failed: LP multiplier of an inequality row is positive\n"
    )


def test_duplicate_knots_exit_code(capsys):
    code, out, err = run(capsys, "eval", "--knots", "0,0", "--values", "1,2")
    assert code == 2
    assert out == ""
    assert "0" in err


def test_pole_exit_code(capsys):
    code, out, err = run(
        capsys, "fd", "--func", "ratfun:1;-1/2,1", "--x", "0", "--h", "1/2",
        "--n", "1",
    )
    assert code == 2
    assert "pole" in err.lower() or "1/2" in err


def test_domain_error_exit_code(capsys, tmp_path):
    grid = tmp_path / "hat.csv"
    grid.write_text("L=2\n1,1\n")
    code, out, err = run(
        capsys, "fd", "--func", f"pl:{grid}", "--x", "1/2", "--h", "1", "--n", "1"
    )
    assert code == 2


def test_grid_file_not_utf8_is_one_line_exit_one(capsys, tmp_path):
    grid = tmp_path / "bad.csv"
    grid.write_bytes(b"L=2\n1,\xff\n")
    code, out, err = run(capsys, "uniform", "--func", f"pl:{grid}", "--n", "2")
    assert code == 1
    assert out == ""
    assert err.startswith(f"divdiff: error: cannot read grid file {str(grid)!r}: ")
    assert err.count("\n") == 1


def test_usage_errors_exit_one(capsys):
    for argv in (
        [],
        ["no-such-command"],
        ["uniform", "--func", "poly:0,1"],
        ["uniform", "--func", "poly:0,1", "--n", "x"],
        ["uniform", "--func", "poly:0,1", "--n", "2", "--unknown-flag"],
        ["fd", "--func", "poly:1", "--x", "0.5", "--h", "1/2", "--n", "1"],
        ["eval", "--knots", "0,1", "--values", "0,1", "-z"],
        ["fd", "--func", "poly:1", "--x", "-z", "--h", "1/2", "--n", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == "", argv


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (
            ["telescope", "--func", "poly:0,1", "--extend-zero",
             "--h", "1/4", "--n", "2", "--j", "1", "--N", "3"],
            "--x", "-1/10",
        ),
        (["eval", "--values", "1,0,1"], "--knots", "-1,0,1"),
    ],
)
def test_negative_rational_value_after_a_space(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 0, err
    assert (code, out, err) == run(capsys, *argv, f"{flag}={value}")


def test_bad_rational_value_names_the_flag_style_error(capsys):
    code, out, err = run(
        capsys, "fd", "--func", "poly:1", "--x", "nope", "--h", "1/2", "--n", "1"
    )
    assert code == 1
    assert out == ""


def test_mismatched_eval_lists(capsys):
    code, out, err = run(capsys, "eval", "--knots", "0,1", "--values", "1")
    assert code == 1
    assert err == "divdiff: error: got 2 knots but 1 values; they must match\n"


def test_json_output_is_stable_in_process(capsys):
    args = ["identity", "--func", "ratfun:1;1,0,25", "--n", "4"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_csv_and_json_agree_on_exact_values(capsys):
    args = ["nullspace", "--N", "3"]
    doc = run_json(capsys, *args)
    code, out, err = run(capsys, *args, "--format", "csv")
    assert code == 0
    csv_pairs = {}
    for line in out.splitlines()[1:]:
        if not line:
            break
        key, _, value = line.partition(",")
        csv_pairs[key] = value
    assert csv_pairs["results.dimension"] == str(doc["results"]["dimension"])
    assert csv_pairs["results.forced_zero_points[1]"] == str(
        doc["results"]["forced_zero_points"][1]
    )
    assert csv_pairs["provenance.version"] == doc["provenance"]["version"]


@pytest.mark.parametrize("argv", [
    ["uniform", "--func", "poly:1\r", "--n", "2"],
    ["identity", "--func", "ratfun:1;1,0,25\r", "--n", "2"],
])
def test_csv_cells_with_a_carriage_return_read_back_unchanged(capsys, tmp_path, argv):
    # A lone \r must be quoted: csv.reader ends an unquoted cell there.
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0, err
    assert dict(csv.reader(io.StringIO(out, newline="")))["inputs.func"] == argv[2]
    target = tmp_path / "report.csv"
    assert main([*argv, "--format", "csv", "--out", str(target)]) == 0
    with open(target, newline="", encoding="utf-8") as fh:
        assert dict(csv.reader(fh))["inputs.func"] == argv[2]


def test_every_exact_field_reparses_across_commands(capsys, tmp_path):
    grid = tmp_path / "hat.csv"
    grid.write_text("L=2\n1,1\n")
    commands = [
        ["eval", "--knots", "0,1/3,1", "--values", "1,0,1"],
        ["uniform", "--func", "ratfun:1;1,0,25", "--n", "4"],
        ["fd", "--func", "poly:0,0,1", "--x", "1/3", "--h", "1/6", "--n", "2"],
        ["identity", "--func", f"pl:{grid}", "--n", "4"],
        ["interp", "--func", "poly:0,-1,0,1", "--n", "3"],
        ["cascade", "--func", "poly:1,2,3"],
        ["nullspace", "--N", "4"],
        ["minlip", "--N", "3"],
        ["probe", "--func", f"pl:{grid}", "--extend-zero", "--x", "0",
         "--h", "1/4", "--n", "1", "--Nmax", "4"],
        ["telescope", "--func", f"pl:{grid}", "--extend-zero", "--x", "1/10",
         "--h", "1/50", "--n", "2", "--j", "1", "--N", "6"],
        ["walkthrough", "--func", f"pl:{grid}", "--extend-zero", "--x", "1/10",
         "--h", "1/8", "--n", "1", "--N", "8"],
    ]

    def lookup(doc, path):
        node = doc
        for piece in path.replace("]", "").replace("[", ".").split("."):
            node = node[int(piece)] if isinstance(node, list) else node[piece]
        return node

    for argv in commands:
        doc = run_json(capsys, *argv)
        exact = doc["provenance"]["exact_fields"]
        assert exact, argv
        for path in exact:
            leaf = lookup(doc, path)
            if isinstance(leaf, str):
                parse_rational(leaf)
            else:
                assert isinstance(leaf, int), (argv, path)


def test_main_reuses_one_parser_across_calls(capsys):
    cases = [
        ("uniform", "--func", "poly:0,0,1", "--n", "2"),
        ("uniform", "--n", "2"),
        ("fd", "--func", "poly:0,0,1", "--x", "0", "--h", "1/2", "--n", "2"),
    ]
    fresh = {}
    for argv in cases:
        cli.build_parser.cache_clear()
        fresh[argv] = run(capsys, *argv)
    code, out, err = fresh[cases[1]]
    assert code == 1 and out == ""
    assert err.startswith("usage: divdiff uniform")
    assert "--func" in err
    for _ in range(3):
        for argv in cases:
            assert run(capsys, *argv) == fresh[argv]
    assert cli.build_parser() is cli.build_parser()


# The parser's declarations, read from argparse's actions rather than its
# rendered help so that they hold on every supported Python.  Each option
# is (option strings, dest, type name, nargs, required, default, choices,
# help); each subcommand is (name, help line, options, mutually exclusive
# groups as (required, member option strings)).
HELP = (("-h", "--help"), "help", None, 0, False, argparse.SUPPRESS, None,
        "show this help message and exit")
FORMAT = (("--format",), "format", None, None, False, "json", ("json", "csv"), None)
OUT = (("--out",), "out", None, None, False, None, None,
       "write the report to this path instead of stdout")
FUNC = (("--func",), "func", None, None, True, None, None,
        "function spec: poly:a0,a1,..., ratfun:a0,...;b0,..., or pl:<path>")
EXTEND_ZERO = (("--extend-zero",), "extend_zero", None, 0, False, False, None,
               "treat the function as 0 outside [0, 1]")
X = (("--x",), "x", "rational", None, True, None, None, None)
H = (("--h",), "h", "rational", None, True, None, None, None)
N_ORDER = (("--n",), "n", "int", None, True, None, None, None)
N_COUNT = (("--N",), "N", "int", None, True, None, None, None)
MAX_N = (("--max-N",), "max_N", "int", None, False, None, None,
         "raise the N cap (default 12)")
DECLARATIONS = [
    ("eval", "divided difference at explicit knots", [
        HELP, FORMAT, OUT,
        (("--knots",), "knots", None, None, True, None, None,
         "comma-separated rational knots"),
        (("--values",), "values", None, None, True, None, None,
         "comma-separated rational values"),
    ], []),
    ("uniform", "divided difference at the equispaced knots k/n",
     [HELP, FORMAT, OUT, FUNC, EXTEND_ZERO, N_ORDER], []),
    ("fd", "forward finite difference of order n with step h",
     [HELP, FORMAT, OUT, FUNC, EXTEND_ZERO, X, H, N_ORDER], []),
    ("identity", "equispaced divided difference against the scaled finite difference",
     [HELP, FORMAT, OUT, FUNC, EXTEND_ZERO, N_ORDER], []),
    ("interp", "equispaced interpolating polynomial and leading coefficient",
     [HELP, FORMAT, OUT, FUNC, EXTEND_ZERO, N_ORDER], []),
    ("cascade", "difference cascade locating the degree of a polynomial", [
        HELP, FORMAT, OUT,
        (("--func",), "func", None, None, True, None, None,
         "polynomial spec poly:a0,a1,..."),
    ], []),
    ("nullspace", "null space of the difference constraint system",
     [HELP, FORMAT, OUT, N_COUNT, MAX_N], []),
    ("minlip", "least Lipschitz constant among unit-size solutions",
     [HELP, FORMAT, OUT, N_COUNT, MAX_N], []),
    ("probe", "averaged forward differences of a zero-extended function", [
        HELP, FORMAT, OUT, FUNC, EXTEND_ZERO, X, H, N_ORDER,
        (("--N",), "N", "int", None, False, None, None, "single shift count"),
        (("--Nmax",), "Nmax", "int", None, False, None, None,
         "sweep N = 1, 2, 4, ... up to this value"),
    ], [(True, [("--N",), ("--Nmax",)])]),
    ("telescope", "exact reindexing identity for shifted sums", [
        HELP, FORMAT, OUT, FUNC, EXTEND_ZERO, X, H, N_ORDER,
        (("--j",), "j", "int", None, True, None, None, None),
        N_COUNT,
    ], []),
    ("walkthrough", "full exact trace of the averaged-defect identity",
     [HELP, FORMAT, OUT, FUNC, EXTEND_ZERO, X, H, N_ORDER, N_COUNT], []),
]


def test_parser_declarations_are_pinned():
    parser = cli.build_parser()
    assert parser.prog == "divdiff"
    assert parser.description == (
        "Exact divided differences, equispaced interpolation, "
        "and difference-constraint exploration."
    )
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    helps = {action.dest: action.help for action in sub._choices_actions}
    declared = []
    for name, p in sub.choices.items():
        assert p.description == helps[name], name
        options = [
            (tuple(a.option_strings), a.dest, getattr(a.type, "__name__", None),
             a.nargs, a.required, a.default, a.choices, a.help)
            for a in p._actions
        ]
        groups = [
            (g.required, [tuple(a.option_strings) for a in g._group_actions])
            for g in p._mutually_exclusive_groups
        ]
        declared.append((name, helps[name], options, groups))
    assert declared == DECLARATIONS
    assert list(sub.choices) == list(README_COMMANDS)


def _parse_long_rational(text):
    # Parsing the value back needs the int-from-str digit limit lifted;
    # the CLI itself must print it without lifting the limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return parse_rational(text)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_exact_values_past_the_str_digit_limit_print(capsys, fmt):
    # 97 knots of this family give a divided difference of over 4,600
    # digits, past CPython's default limit of 4,300 for int-to-str.
    n = 96
    knots = [Fraction((-1) ** k * (k * k + 1), k % 7 + 2) for k in range(n + 1)]
    values = [
        Fraction((-1) ** k * (3 * k + 1), 2 ** (k % 13) * (k + 5)) for k in range(n + 1)
    ]
    limit = sys.get_int_max_str_digits()
    code, out, err = run(
        capsys, "eval", "--knots", ",".join(map(str, knots)),
        "--values", ",".join(map(str, values)), "--format", fmt,
    )
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    if fmt == "json":
        results = json.loads(out)["results"]
    else:
        results = dict(line.split(",", 1) for line in out.splitlines() if "," in line)
        results = {k.removeprefix("results."): v for k, v in results.items()}
    expected = divided_difference_direct(KnotValueList(knots, values))
    assert len(results["direct"]) > 4300
    assert _parse_long_rational(results["direct"]) == expected
    assert _parse_long_rational(results["recursive"]) == expected
    assert results["direct_decimal"] == results["recursive_decimal"]


def test_integers_past_the_str_digit_limit_print_as_digit_strings(capsys):
    # j' = 1800! has 5,050 digits; json and csv write it as a string
    limit = sys.get_int_max_str_digits()
    argv = ["telescope", "--func", "poly:1,2", "--extend-zero", "--x", "0",
            "--h", "1/8", "--n", "1800", "--j", "1", "--N", "5"]
    doc = run_json(capsys, *argv)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    jprime = doc["results"]["jprime"]
    assert isinstance(jprime, str) and "results.jprime" in doc["provenance"]["exact_fields"]
    assert _parse_long_rational(jprime) == math.factorial(1800)
    assert f"results.jprime,{jprime}\n" in out
    assert doc["results"]["equal"] is True
    assert doc["results"]["N"] == 5


def test_probe_with_a_huge_shift_count_finishes(capsys, tmp_path):
    grid = tmp_path / "hat.csv"
    grid.write_text("L=2\n1,1\n")
    common = ["probe", "--func", f"pl:{grid}", "--extend-zero", "--x", "1/10",
              "--h", "1/64", "--n", "3"]
    big = run_json(capsys, *common, "--N", "100000000")["results"]["rows"][0]
    small = run_json(capsys, *common, "--N", "64")["results"]["rows"][0]
    residual = parse_rational(big["residual"])
    assert abs(residual) <= parse_rational(big["bound"])
    # residual * N is constant once N passes the cutoff floor((1-x)/h) = 57
    assert residual * 100000000 == parse_rational(small["residual"]) * 64


def test_walkthrough_of_order_fifteen_finishes(capsys, tmp_path):
    grid = tmp_path / "hat.csv"
    grid.write_text("L=2\n1,1\n")
    results = run_json(
        capsys, "walkthrough", "--func", f"pl:{grid}", "--extend-zero",
        "--x", "1/10", "--h", "1/64", "--n", "15", "--N", "8",
    )["results"]
    assert results["identity_equal"] is True
    assert results["residual"] == results["boundary_total"]
    assert len(results["boundary"]) == 15


@pytest.mark.parametrize(
    "func, extend",
    [("poly:1,-2,3/5,7", True), ("poly:1,-2,3/5,7", False), ("pl:{grid}", True)],
)
def test_telescope_of_order_twenty_finishes(capsys, tmp_path, func, extend):
    grid = tmp_path / "hat.csv"
    grid.write_text("L=2\n1,1\n")
    argv = ["telescope", "--func", func.format(grid=grid), "--x", "1/10",
            "--h", "1/50", "--n", "20", "--j", "3", "--N", "1000"]
    if extend:
        argv.append("--extend-zero")
    results = run_json(capsys, *argv)["results"]
    assert results["jprime"] == math.factorial(20) // 3
    assert results["equal"] is True
    assert results["lhs"] == results["rhs"]
