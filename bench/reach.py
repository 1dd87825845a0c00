"""The lines of ``src/divdiff`` that no golden or pin reaches, function by function.

    python3.12 bench/reach.py

Runs every case of ``CASES`` in ``tests/golden/check.py`` (the README
commands in JSON and CSV, then the pins) in this process, through
``check.run``, under a ``sys.monitoring`` LINE callback, so it needs
Python 3.12 or later.  The callback records each line once and disables
itself there, so a line costs one call however often it runs.

A function's executable lines are the line numbers of its instructions
other than RESUME, read from the code objects of the compiled modules;
a generator expression or lambda counts toward the function it is
written in.  The report lists first each function that never ran, then
each function that ran with some lines unreached, each line marked
``!`` when it is a guard (it starts with ``raise`` or ``except``).  The
last line gives the totals and the time taken.  Only the standard
library is used.
"""

import contextlib
import dis
import inspect
import io
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests" / "golden")]

import check  # noqa: E402

PACKAGE = Path(check.divdiff.__file__).parent

GUARD = re.compile(r"\s*(raise|except)\b")


def _lines(code, owner, into):
    """Add the executable lines of code and of the code objects in it to
    into[qualname], each under the nearest function with a name.  A module
    or class body runs at import, and is no function."""
    if not code.co_flags & inspect.CO_NEWLOCALS:
        owner = None
    elif not code.co_name.startswith("<"):
        owner = code.co_qualname
    if owner is not None:
        into.setdefault(owner, set()).update(
            i.positions.lineno for i in dis.get_instructions(code)
            if i.opname != "RESUME" and i.positions.lineno
        )
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            _lines(const, owner, into)


def executable(path):
    """{qualname: executable lines} for the functions of the module at path."""
    functions = {}
    _lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"), None, functions)
    return functions


def reached(argvs):
    """The (file name, line) pairs that running ``divdiff <argv>`` for each
    argv reaches, in this process, with stderr kept in memory."""
    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    seen = set()

    def line(code, number):
        seen.add((code.co_filename, number))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "reach")
    try:
        monitoring.register_callback(tool, monitoring.events.LINE, line)
        monitoring.restart_events()
        monitoring.set_events(tool, monitoring.events.LINE)
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                check.run(argv)
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    return seen


def functions(argvs):
    """{(module file name, qualname): (executable line count, unreached
    lines)} over every function of the package, for the given argvs."""
    seen = reached(argvs)
    return {
        (path.name, name): (len(lines), sorted(n for n in lines if (str(path), n) not in seen))
        for path in sorted(PACKAGE.glob("*.py"))
        for name, lines in executable(path).items()
    }


def _spans(lines, text):
    """The lines as runs a-b, with ! after each guard line, which stands alone."""
    parts = []
    for n in lines:
        mark = "!" if GUARD.match(text[n - 1]) else ""
        if parts and not mark and not parts[-1][2] and parts[-1][1] == n - 1:
            parts[-1][1] = n
        else:
            parts.append([n, n, mark])
    return ", ".join(f"{a}{mark}" if a == b else f"{a}-{b}" for a, b, mark in parts)


def main():
    start = time.perf_counter()
    found = functions(pin.argv for pin in check.CASES.values())
    seconds = time.perf_counter() - start
    texts = {path.name: path.read_text(encoding="utf-8").splitlines()
             for path in PACKAGE.glob("*.py")}
    total = sum(count for count, _ in found.values())
    missed = sum(len(lines) for _, lines in found.values())
    guards = sum(bool(GUARD.match(texts[file][n - 1]))
                 for (file, _), (_, lines) in found.items() for n in lines)
    never = {key for key, (count, lines) in found.items() if lines and len(lines) == count}
    partly = {key for key, (_, lines) in found.items() if lines} - never
    for title, keys in (("never run", sorted(never)), ("partly run", sorted(partly))):
        print(f"{title}:")
        for file, name in keys:
            count, lines = found[file, name]
            print(f"  {file} {name}: {len(lines)} of {count}: {_spans(lines, texts[file])}")
    print(f"{missed} of {total} executable lines in {len(never | partly)} functions unreached "
          f"({guards} guards, {len(never)} functions never run) by {len(check.CASES)} cases, "
          f"in {seconds:.1f} s")


if __name__ == "__main__":
    main()
