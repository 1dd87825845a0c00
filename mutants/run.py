"""Run the committed mutants of ``mutants/table.py`` against the tier-1 tests.

    python mutants/run.py

Each mutant is applied to a fresh copy of ``src/`` in a temporary
directory, and its named tests are run against that copy with pytest
from the repository root.  A mutant is caught when every named test
fails, or when its run takes more than TIMEOUT seconds; it survives
when any named test passes.  First the union of the named tests must
pass on an unmutated copy, so that a test broken for another reason
catches nothing.  The exit status is 0 when every mutant is caught, and
1 when one survives, its old text does not occur exactly once, or a run
goes wrong.  Only the standard library is used here; the tests
themselves need pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from table import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per pytest run


def copy_source(into: Path) -> Path:
    """A copy of src/ under into, without byte code; the package's directory."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "src", into / "src", ignore=ignore)
    return into / "src" / "divdiff"


def run_tests(src: Path, tests: list[str]) -> tuple[str, set[str]]:
    """pytest on tests with src first on the path: ("passed" | "failed" |
    "timeout" | "error: ...", the ids of the tests that failed or errored)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return "timeout", set()
    failed = {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    if done.returncode in (0, 1):
        return ("passed", failed) if done.returncode == 0 else ("failed", failed)
    tail = done.stdout[-2000:] + done.stderr[-2000:]
    return f"error: pytest exit {done.returncode}\n{tail}", failed


def main() -> int:
    tests = sorted({test for mutant in MUTANTS.values() for test in mutant.tests})

    bad = []
    with tempfile.TemporaryDirectory(prefix="divdiff-mutants-") as tmp:
        status, failed = run_tests(copy_source(Path(tmp) / "clean").parent, tests)
        if status != "passed":
            print(f"the named tests fail on the unmutated source ({status}): {sorted(failed)}")
            return 1
        for name, mutant in MUTANTS.items():
            package = copy_source(Path(tmp) / name)
            path = package / mutant.file
            text = path.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                print(f"ERROR    {name}: its old text occurs {count} times in {mutant.file}")
                bad.append(name)
                continue
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            status, failed = run_tests(package.parent, list(mutant.tests))
            passing = [test for test in mutant.tests if test not in failed]
            if status == "timeout" or (status == "failed" and not passing):
                print(f"caught   {name} ({status}): {mutant.reason}")
                continue
            bad.append(name)
            if status.startswith("error"):
                print(f"ERROR    {name}: {status}")
            else:
                print(f"SURVIVED {name}: these tests pass: {passing}")
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
