"""End-to-end command-line behaviour: reports, formats, and exit codes."""

import argparse
import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from golden.check import CASES, GOLDEN_DIR, PINS, README_COMMANDS, child_env
from util import (
    corrupting_kernel_basis,
    corrupting_solve_lp,
    corrupting_tableau,
    lookup,
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


@pytest.mark.skipif(os.name != "posix", reason="needs a pipe that reports EPIPE")
def test_a_pipe_closed_by_its_reader_is_one_line_error():
    # The reader is gone before the report is written, and a 2 MB report
    # cannot wait in the pipe's buffer.
    proc = subprocess.Popen(
        [sys.executable, "-m", "divdiff", "nullspace", "--N", "12"], env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.communicate()
    assert (proc.returncode, err) == (
        1, f"divdiff: error: cannot write <stdout>: {os.strerror(errno.EPIPE)}\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    # A small report waits in the stdout buffer until the flush; a large
    # one fails in the write itself.
    [["uniform", "--func", "poly:0,0,1", "--n", "2"], ["nullspace", "--N", "9"]],
)
def test_stdout_on_a_full_device_is_one_line_error(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "divdiff", *argv], stdout=full, stderr=subprocess.PIPE,
            env=child_env(PYTHONUNBUFFERED=None), text=True, timeout=60,
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
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "divdiff", "uniform", "--help"], stdout=full,
            stderr=subprocess.PIPE, env=child_env(PYTHONUNBUFFERED=unbuffered), text=True,
            timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr == (
        f"divdiff: error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.skipif(os.name != "posix", reason="needs bytes arguments")
@pytest.mark.parametrize("name", ["hüt.csv", b"h\xfct.csv"], ids=["utf8-name", "raw-byte-name"])
def test_a_report_is_the_same_utf8_bytes_whatever_the_stdout_encoding(tmp_path, name):
    # The CSV cell inputs.func holds the path as it came.  A name that is
    # not UTF-8 reaches Python as surrogate escapes and goes back as bytes.
    try:
        (tmp_path / os.fsdecode(name)).write_bytes((GOLDEN_DIR / "hat.csv").read_bytes())
    except OSError:
        pytest.skip("the file system refuses the name")
    argv = [sys.executable, "-m", "divdiff", "probe", "--func", b"pl:" + os.fsencode(name),
            "--extend-zero", "--x", "0", "--h", "1/4", "--n", "1", "--N", "2", "--format", "csv"]
    reports = []
    for encoding in ["utf-8", "latin-1", "ascii"]:
        proc = subprocess.run(argv, cwd=tmp_path, env=child_env(PYTHONIOENCODING=encoding),
                              capture_output=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        reports.append(proc.stdout)
    proc = subprocess.run(argv + ["--out", "report.csv"], cwd=tmp_path, env=child_env(),
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    reports.append((tmp_path / "report.csv").read_bytes())
    assert reports == [reports[0]] * 4
    assert b"inputs.func,pl:" + os.fsencode(name) + b"\n" in reports[0]
    if name == "hüt.csv":
        assert hashlib.sha256(reports[0]).hexdigest() == (
            "66a1ba835ace2ce5ebb283c7542b923294cf8db5e1a15c7a56e2d690aa23c0fb"
        )


def test_a_report_written_in_slices_has_the_bytes_of_one_encoding(tmp_path, monkeypatch):
    # Undecodable bytes of a path come as surrogate escapes; here they lie
    # on both sides of the first slice boundary.
    escapes = "".join(map(chr, range(0xDC80, 0xDD00)))
    text = "x" * (cli._SLICE - 64) + escapes + "hüt\n" + escapes
    assert len(text) > cli._SLICE
    expected = text.encode("utf-8", "surrogateescape")
    target = tmp_path / "report.csv"
    assert cli._write(text, str(target))
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli._write(text, None)
    assert target.read_bytes() == expected
    assert stdout.buffer.getvalue() == expected


@pytest.mark.parametrize(
    "callee, argv, exc",
    [
        ("min_lipschitz_unit_norm", ["minlip", "--N", "3"],
         ArithmeticError("LP duality gap is not zero")),
        ("nullspace", ["nullspace", "--N", "3"],
         ArithmeticError("the rows have rank below their 5 pivot columns")),
        ("averaging_sweep",
         ["probe", "--func", "poly:1", "--extend-zero", "--x", "0", "--h", "1/4",
          "--n", "1", "--Nmax", "4"],
         ZeroDivisionError("Fraction(1, 0)")),
        ("averaging_probe",
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


# A child that caps its address space at argv[2] bytes unless that is 0,
# turns SIGINT into KeyboardInterrupt even where its parent ignores the
# signal, writes one byte to the pipe argv[1] once divdiff is imported,
# and runs cli.main on the rest of its argv.
CHILD = """
import os, resource, signal, sys
limit = int(sys.argv[2])
if limit:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
signal.signal(signal.SIGINT, signal.default_int_handler)
from divdiff.cli import main
os.write(int(sys.argv[1]), b"r")
os.close(int(sys.argv[1]))
sys.exit(main(sys.argv[3:]))
"""


def launch_child(argv, memory=0):
    """cli.main on argv in a child process; returns once divdiff is loaded there."""
    read, write = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(write), str(memory), *argv], pass_fds=(write,),
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        assert pipe.read(1) == b"r"
    return proc


@pytest.mark.skipif(os.name != "posix", reason="needs SIGINT and pass_fds")
def test_an_interrupt_is_one_line_exit_two():
    proc = launch_child(["minlip", "--N", "13", "--max-N", "13"])
    try:
        time.sleep(0.5)  # into the LPs, which take seconds at N = 13
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.communicate()
    assert (proc.returncode, out, err) == (2, "", "divdiff: interrupted\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
def test_running_out_of_memory_is_one_line_exit_two():
    # The order-10^5 binomial row alone takes about 0.9 GB.
    argv = ["fd", "--func", "ratfun:1;1,0,25", "--x", "0", "--h", "1/100000", "--n", "100000"]
    proc = launch_child(argv, memory=512 << 20)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.communicate()
    assert (proc.returncode, out, err) == (2, "", "divdiff: error: fd ran out of memory\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_run_past_an_index_sized_integer_is_one_line_exit_two(fmt):
    # From N = 43 the basis holds more than sys.maxsize vectors, which no
    # list index reaches; at N = 50 its first run of untouched columns alone
    # is longer than that.  On Linux a memory cap ends a writer that starts
    # anyway.
    cap = 512 << 20 if sys.platform.startswith("linux") else 0
    for n in ("43", "50"):
        proc = launch_child(["nullspace", "--N", n, "--max-N", n, "--format", fmt], memory=cap)
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.communicate()
        assert (proc.returncode, out) == (2, ""), n
        assert err.startswith("divdiff: error: nullspace exceeds a size limit: "), n
        assert err.count("\n") == 1 and err.endswith("\n"), n


@pytest.mark.parametrize("callee", ["nullspace", "render_json", "_write"])
def test_an_overflow_in_run_render_or_write_is_a_size_limit(capsys, monkeypatch, callee):
    def fail(*args, **kwargs):
        raise OverflowError("too wide")

    monkeypatch.setattr(cli, callee, fail)
    code, out, err = run(capsys, "nullspace", "--N", "3")
    assert (code, out) == (2, "")
    assert err == "divdiff: error: nullspace exceeds a size limit: too wide\n"


def test_only_an_interrupt_or_a_memory_error_is_caught(monkeypatch):
    # A BaseException such as a caller's deadline passes through main.
    class Deadline(BaseException):
        pass

    def stop(*args, **kwargs):
        raise Deadline

    monkeypatch.setattr(cli, "nullspace", stop)
    with pytest.raises(Deadline):
        main(["nullspace", "--N", "3"])


@pytest.mark.parametrize(
    "count, called",
    [(["--N", "5"], "averaging_probe"), (["--Nmax", "5"], "averaging_sweep")],
)
def test_probe_runs_one_count_by_the_probe_and_a_sweep_by_the_sweep(
    capsys, monkeypatch, count, called
):
    calls = []
    for name in ("averaging_probe", "averaging_sweep"):
        def spy(*args, _name=name, _real=getattr(cli, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cli, name, spy)
    code, out, err = run(capsys, "probe", "--func", "poly:1,1", "--extend-zero", "--x", "1/3",
                         "--h", "1/8", "--n", "2", *count)
    assert (code, err) == (0, "")
    assert calls == [called]


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

    monkeypatch.setattr(extremal, "_Tableau", corrupting_tableau(negate_the_dual, warm=True))
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


# Each meets the pole at 1/2 of its function: an fd stencil point, a
# knot k/n, and a lattice point x + m*h of a zero-extended shift sum.
POLE_ARGS = {
    "fd": ("fd", "--func", "ratfun:1;-1/2,1", "--x", "0", "--h", "1/2", "--n", "1"),
    "uniform": ("uniform", "--func", "ratfun:1;-1,2", "--n", "2"),
    "interp": ("interp", "--func", "ratfun:1;-1,2", "--n", "2"),
    **{
        cmd: (
            cmd, "--func", "ratfun:1;-1,2", "--extend-zero", "--x", "0", "--h", "1/4",
            "--n", "2", "--N", "2",
        )
        for cmd in ("probe", "walkthrough")
    },
}


@pytest.mark.parametrize("cmd", list(POLE_ARGS))
def test_pole_exit_code(capsys, cmd):
    code, out, err = run(capsys, *POLE_ARGS[cmd])
    assert code == 2
    assert out == ""
    assert err == "divdiff: error: denominator vanishes at 1/2\n"


def test_domain_error_exit_code(capsys, tmp_path):
    grid = tmp_path / "hat.csv"
    grid.write_text("L=2\n1,1\n")
    code, out, err = run(
        capsys, "fd", "--func", f"pl:{grid}", "--x", "1/2", "--h", "1", "--n", "1"
    )
    assert code == 2


def test_unextended_grid_stencil_names_its_first_point_outside(capsys, monkeypatch):
    # The points 1/3 + j/8 are asked for in ascending j; j = 6 and 7 give
    # 13/12 and 29/24, both outside [0, 1], and the first one is named.
    monkeypatch.chdir(GOLDEN_DIR)
    code, out, err = run(
        capsys, "fd", "--func", "pl:zigzag.csv", "--x", "1/3", "--h", "1/8", "--n", "7"
    )
    assert (code, out) == (2, "")
    assert err == "divdiff: error: 13/12 is outside [0, 1]\n"


def test_grid_file_not_utf8_is_one_line_exit_one(capsys, tmp_path):
    grid = tmp_path / "bad.csv"
    grid.write_bytes(b"L=2\n1,\xff\n")
    code, out, err = run(capsys, "uniform", "--func", f"pl:{grid}", "--n", "2")
    assert code == 1
    assert out == ""
    assert err.startswith(f"divdiff: error: --func: cannot read grid file {str(grid)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "spec, reason",
    [
        ("poly:1,x", "not a rational literal: 'x'"),
        ("ratfun:1", "ratfun needs numerator and denominator separated by ';'"),
        ("pl:{missing}", "cannot read grid file {missing!r}: "
                         "[Errno 2] No such file or directory: {missing!r}"),
    ],
    ids=["poly", "ratfun", "pl"],
)
def test_malformed_func_names_its_flag(capsys, tmp_path, spec, reason):
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, "uniform", "--func", spec.format(missing=missing), "--n", "2")
    assert (code, out) == (1, "")
    assert err == f"divdiff: error: --func: {reason.format(missing=missing)}\n"


def zero_extended_argv(command, x):
    """probe or walkthrough of a zero-extended quadratic at the base point x."""
    return [command, "--func", "poly:1,2,3", "--extend-zero", "--x", x, "--h", "1/8",
            "--n", "3", "--N", "5"]


def test_probe_at_x_one_has_zero_residual_and_bound(capsys):
    # Every shift of x = 1 leaves [0, 1], where f is 0.
    [row] = run_json(capsys, *zero_extended_argv("probe", "1"))["results"]["rows"]
    assert (row["residual"], row["bound"]) == ("0", "0")


def test_walkthrough_at_x_one_keeps_its_identity(capsys):
    results = run_json(capsys, *zero_extended_argv("walkthrough", "1"))["results"]
    assert results["identity_equal"] is True


@pytest.mark.parametrize("command", ["probe", "walkthrough"])
def test_x_beyond_one_is_refused(capsys, command):
    expected = (1, "", "divdiff: error: --x must lie in [0, 1]\n")
    assert run(capsys, *zero_extended_argv(command, "9/8")) == expected


def test_usage_errors_exit_one(capsys):
    # No subcommand, an unknown one and an unknown flag after a known one
    # hand over to argparse's top-level parser: its message is the last line.
    for argv, last_line in (
        ([], "divdiff: error: the following arguments are required: command"),
        (["no-such-command"], "divdiff: error: .*invalid choice.*"),
        (["uniform", "--func", "poly:0,1"], None),
        (["uniform", "--func", "poly:0,1", "--n", "x"], None),
        (["uniform", "--func", "poly:0,1", "--n", "2", "--unknown-flag"],
         "divdiff: error: unrecognized arguments: --unknown-flag"),
        (["fd", "--func", "poly:1", "--x", "0.5", "--h", "1/2", "--n", "1"], None),
        (["eval", "--knots", "0,1", "--values", "0,1", "-z"], None),
        (["fd", "--func", "poly:1", "--x", "-z", "--h", "1/2", "--n", "1"], None),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == "", argv
        if last_line is not None:
            assert re.fullmatch(last_line, err.splitlines()[-1]), (argv, err)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_each_subcommand_has_its_own_help(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: divdiff {command} ")


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


INTEGER_OPTIONS = {
    "--n": ["uniform", "--func", "poly:1", "--n"],
    "--N": ["nullspace", "--N"],
    "--j": ["telescope", "--func", "poly:0,1", "--extend-zero", "--x", "0", "--h", "1/4",
            "--n", "2", "--N", "3", "--j"],
    "--Nmax": ["probe", "--func", "poly:1", "--extend-zero", "--x", "0", "--h", "1/4",
               "--n", "1", "--Nmax"],
    "--max-N": ["nullspace", "--N", "2", "--max-N"],
}


@pytest.mark.parametrize("bad", ["1_0", "\u0663", "\uff11", "4.0", "0x4", "+"])
@pytest.mark.parametrize("flag", list(INTEGER_OPTIONS))
def test_integer_options_take_ascii_digits_only(capsys, flag, bad):
    # int() takes "1_0", Arabic-Indic and fullwidth digits; the CLI does not
    code, out, err = run(capsys, *INTEGER_OPTIONS[flag], bad)
    assert (code, out) == (1, "")
    assert err == f"divdiff: error: {flag}: not an integer literal: {bad!r}\n"


@pytest.mark.parametrize("flag", list(INTEGER_OPTIONS))
def test_integer_options_still_take_a_signed_literal(capsys, flag):
    code, out, err = run(capsys, *INTEGER_OPTIONS[flag], "+2")
    assert code == 0, err


def test_an_integer_past_the_str_digit_limit_names_the_flag(capsys):
    # int() refuses it with a plain ValueError, not a ParseError
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "nullspace", "--N", "1" * 4301)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (1, "")
    assert err.startswith("divdiff: error: --N: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, flag, bad", [
    (["fd", "--func", "poly:1", "--h", "1/2", "--n", "1", "--x"], "--x", "nope"),
    (["eval", "--values", "1,2,3", "--knots"], "--knots", "0,,1"),
])
def test_malformed_rational_values_name_the_flag(capsys, argv, flag, bad):
    code, out, err = run(capsys, *argv, bad)
    assert (code, out) == (1, "")
    assert err.startswith(f"divdiff: error: {flag}: not a rational literal: ")
    assert err.count("\n") == 1


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
X = (("--x",), "x", None, None, True, None, None, None)
H = (("--h",), "h", None, None, True, None, None, None)
N_ORDER = (("--n",), "n", None, None, True, None, None, None)
N_COUNT = (("--N",), "N", None, None, True, None, None, None)
MAX_N = (("--max-N",), "max_N", None, None, False, None, None,
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
        (("--N",), "N", None, None, False, None, None, "single shift count"),
        (("--Nmax",), "Nmax", None, None, False, None, None,
         "sweep N = 1, 2, 4, ... up to this value"),
    ], [(True, [("--N",), ("--Nmax",)])]),
    ("telescope", "exact reindexing identity for shifted sums", [
        HELP, FORMAT, OUT, FUNC, EXTEND_ZERO, X, H, N_ORDER,
        (("--j",), "j", None, None, True, None, None, None),
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


# Argvs that end in help or a usage error, or reach argparse's corners:
# no subcommand, an unknown or abbreviated one, a bad choice, an
# exclusive pair, extra positionals, an unknown flag, abbreviated and
# --flag=value options, and "--".
PARSE_EDGE_ARGVS = [
    [],
    ["-h"],
    ["--help", "minlip"],
    ["bogus"],
    ["min", "--N", "3"],
    ["--format", "csv", "minlip", "--N", "3"],
    ["minlip"],
    ["minlip", "-h"],
    ["minlip", "--N", "3", "--help"],
    ["minlip", "--N", "3", "--format", "xml"],
    ["minlip", "--N=3", "--form=csv"],
    ["minlip", "--N", "13", "--max", "13"],
    ["minlip", "--N", "3", "extra", "positionals"],
    ["minlip", "--", "--N", "3"],
    ["minlip", "--N", "3", "--"],
    ["uniform", "--func", "poly:1", "--n", "2", "--bogus"],
    ["uniform", "--func", "poly:1", "--n", "2", "--bogus", "x", "--n"],
    ["probe", "--func", "poly:1", "--extend-zero", "--x", "0", "--h", "1/2", "--n", "1",
     "--N", "2", "--Nmax", "8"],
    ["fd", "--func", "poly:1", "--x", "-1/10", "--h", "1/2", "--n", "1"],
    ["eval", "--knots", "0,1", "--values", "0,1", "-z"],
    ["minlip", "--N", "3", "--N", "4"],
    ["minlip", "--N", "-h"],
    ["minlip", "--N=--"],
    ["minlip", "--N", ""],
    ["minlip", "--N", "3", "--format=csv", "--out"],
    ["uniform", "--n", "2", "--extend-zero"],
    ["uniform", "--func", "poly:1", "--n", "2", "--extend-zero=1"],
    ["probe", "--func", "poly:1", "--extend-zero", "--x", "0", "--h", "1/2", "--n", "1"],
    ["probe", "--func=poly:1", "--extend-zero", "--x=0", "--h=1/2", "--n=1", "--Nmax=8",
     "--format=csv", "--out=a b"],
]


def _subparser(name):
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def _is_plain(argv):
    """Whether cli._parse reads argv itself, by the rules of cli._plain,
    judged from the subcommand parser's own declarations."""
    if not argv or argv[0] not in cli.COMMANDS:
        return False
    parser = _subparser(argv[0])
    actions = {flag: action for action in parser._actions if action.dest != "help"
               for flag in action.option_strings}
    seen, i = [], 1
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        action = actions.get(flag)
        if action is None or action in seen:
            return False
        seen.append(action)
        if action.nargs == 0:
            if eq:
                return False
        else:
            if not eq:
                i += 1
                value = argv[i] if i < len(argv) else ""
            dash = value == "--" if eq else value[:1] == "-"
            if not value or dash or action.choices and value not in action.choices:
                return False
        i += 1
    if any(action.required and action not in seen for action in actions.values()):
        return False
    return all(sum(action in seen for action in group._group_actions) == 1
               for group in parser._mutually_exclusive_groups)


def _outcome(parse, argv):
    """(namespace as a dict or None, exit code, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            parsed, code = None, exc.code
    return parsed, code, out.getvalue(), err.getvalue()


def _check_against_parse_args(argv):
    """Compare cli._parse with argparse itself, the oracle, on argv; the
    pass must read argv exactly when it is plain.  Returns that verdict."""
    expected = _outcome(cli.build_parser().parse_args, argv)
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as fallback:
        assert _outcome(cli._parse, argv) == expected
    assert fallback.called != _is_plain(argv), argv
    return not fallback.called


@pytest.mark.parametrize(
    "argv", [pin.argv for pin in PINS.values()] + PARSE_EDGE_ARGVS, ids=repr
)
def test_one_pass_parse_matches_parse_args(argv):
    # main parses with cli._parse, for the namespace, the exit code,
    # stdout and stderr.
    _check_against_parse_args(argv)


def test_every_case_without_an_odd_value_takes_the_pass():
    # An argv of the golden and pinned runs goes to argparse only for an
    # empty value, a spaced one that starts with "-" or an "=" one that is
    # "--"; the pass is not dead.
    for name, case in CASES.items():
        odd = any(token == "" or token.partition("=")[2] == "--"
                  or token.startswith("-") and not token.startswith("--")
                  for token in case.argv)
        assert _check_against_parse_args(case.argv) == (not odd), name


# Tokens that argparse reads in its own way, for the drawn argvs below.
CORNER_TOKENS = ["", "-", "--", "-1/2", "-h", "a b", "=", "--form", "--bogus", "--N", "x"]
VALUES = ["1", "1/2", "poly:1,2", "json", "csv", "a=b"]


@st.composite
def argvs(draw):
    """A subcommand's flags in any order, each kept or left out, with
    values and forms drawn to reach the pass's every refusal."""
    name = draw(st.sampled_from([*cli.COMMANDS, "bogus"]))
    if name == "bogus":
        return [name, *draw(st.lists(st.sampled_from(CORNER_TOKENS), max_size=2))]
    actions = [a for a in _subparser(name)._actions if a.dest != "help"]
    argv = [name]
    for action in draw(st.permutations(actions)):
        if draw(st.integers(0, 15 if action.required else 1)) == 0:
            continue
        (flag,) = action.option_strings
        pool = CORNER_TOKENS if draw(st.integers(0, 14)) == 0 else action.choices or VALUES
        tokens = [flag] if action.nargs == 0 else [flag, draw(st.sampled_from(pool))]
        if draw(st.integers(0, 9)) == 0:
            tokens = [f"{tokens[0]}={tokens[-1] if len(tokens) > 1 else '1'}"]
        argv += tokens * (1 + (draw(st.integers(0, 19)) == 0))
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(CORNER_TOKENS)))
    if len(argv) > 1 and draw(st.integers(0, 9)) == 0:
        argv.pop()
    return argv


def test_one_pass_parse_matches_parse_args_on_drawn_argvs():
    taken = []

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(argvs())
    def check(argv):
        taken.append(_check_against_parse_args(argv))

    check()
    assert 100 <= sum(taken) <= len(taken) - 100


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
    # j' = 1800! has 5,080 digits; json and csv write it as a string
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
