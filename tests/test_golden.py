"""Every README example report, and the larger pinned runs, stay
byte-identical to the outputs recorded in tests/golden/."""

import contextlib
import decimal
import hashlib
import io

import pytest

from divdiff.cli import main
from golden.check import (
    GOLDEN_DIR, PINS, README_COMMANDS, golden_text, readme_argv, run, sha256,
)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", list(README_COMMANDS))
def test_readme_command_matches_golden(name, fmt):
    code, out = run(readme_argv(name, fmt))
    assert code == 0
    assert out == golden_text(name, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", list(README_COMMANDS))
def test_readme_command_matches_golden_in_another_decimal_context(name, fmt):
    # The decimal siblings are computed in a context of their own.
    with decimal.localcontext() as ctx:
        ctx.rounding = decimal.ROUND_FLOOR
        ctx.capitals = 0
        before = repr(ctx)
        code, out = run(readme_argv(name, fmt))
        assert repr(decimal.getcontext()) == before
    assert code == 0
    assert out == golden_text(name, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", list(README_COMMANDS))
def test_readme_command_writes_golden_bytes_past_the_stdout_encoder(name, fmt, monkeypatch):
    # A stdout with a byte layer gets the report's UTF-8 bytes, "\n" line
    # ends as they are: neither its codec nor its newline touches them.
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii", newline="\r\n")
    monkeypatch.chdir(GOLDEN_DIR)
    with contextlib.redirect_stdout(stdout):
        code = main(readme_argv(name, fmt))
    assert code == 0
    assert stdout.buffer.getvalue() == (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("name", list(PINS))
def test_pinned_report_digest(name):
    pin = PINS[name]
    code, out = run(pin.argv)
    assert code == pin.code
    assert sha256(out) == pin.digest


@pytest.mark.parametrize("name", [name for name in PINS if name.startswith("nullspace-")])
def test_a_nullspace_pin_through_out_writes_its_bytes(name, tmp_path):
    # Half the reports perfbench writes go through --out: the file holds
    # the pinned bytes, and stdout stays empty.
    pin = PINS[name]
    out = tmp_path / "report"
    assert run(pin.argv + ["--out", str(out)]) == (pin.code, "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pin.digest
