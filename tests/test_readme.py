"""The README "Library quick tour" runs, and every value it shows is right;
its "Command line" examples are the commands of the golden reports, and
its `minlip` table states what `min_lipschitz_unit_norm` finds."""

import ast
import io
import re
import shlex
import tokenize
from fractions import Fraction
from pathlib import Path

from divdiff import min_lipschitz_unit_norm, simplex
from golden.check import README_COMMANDS

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The python block of the README "Library quick tour" section."""
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_shows_true_values():
    # A bare expression whose line ends in "# <python expression>" must
    # equal that expression; every other statement only has to run.
    source = quick_tour()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        shown = comments.get(node.end_lineno)
        if isinstance(node, ast.Expr) and shown is not None:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert value == eval(shown, namespace), f"README.md quick tour line {node.lineno}"
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked >= 4


def test_command_line_examples_are_the_golden_commands():
    # Each line as a POSIX shell splits it, so an unquoted ";" shows up
    # as its own token, in the order of README_COMMANDS.
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    lines = re.search(r"```\n(.*?)```", section, re.S).group(1).splitlines()
    assert len(lines) == len(README_COMMANDS)
    for line, argv in zip(lines, README_COMMANDS.values()):
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        assert list(lexer) == ["divdiff", *argv], line


def test_minlip_table_states_each_value_pin_and_lp_count(monkeypatch):
    # A row names one N or a range a..b: its value holds for each N of
    # the row, and its pins and LP counts list one per N.  N = 11 and 12
    # take seconds; their values and pins are held by the minlip pins of
    # tests/golden/check.py.
    header = "| N | least Lipschitz constant | pin | LPs | time |\n"
    lines = README.read_text(encoding="utf-8").split(header, 1)[1].splitlines()
    stated = {}
    for line in lines[1:]:
        if not line.startswith("|"):
            break
        n, value, pins, lps, _ = (cell.strip() for cell in line.strip("|").split("|"))
        lo, _, hi = n.partition("..")
        ns = range(int(lo), int(hi or lo) + 1)
        for N, pin, lp in zip(ns, pins.split(", "), lps.split(", "), strict=True):
            stated[N] = (Fraction(value), int(pin), int(lp))
    assert list(stated) == list(range(3, 13))

    lps = []
    solve = simplex._Tableau.solve

    def counting_solve(self, *args, **kwargs):
        lps.append(None)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(simplex._Tableau, "solve", counting_solve)
    for N in range(3, 11):
        lps.clear()
        result = min_lipschitz_unit_norm(N)
        assert (result.value, result.pin_index, len(lps)) == stated[N], N
