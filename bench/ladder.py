"""The ladder: divdiff launches timed end to end, written to BENCH_<label>.json.

    python bench/ladder.py --label <label>

Each rung is one argv of the ``divdiff`` command line, with the SHA-256
and exit code its stdout must give.  The rungs are the cases of ``CASES``
in ``tests/golden/check.py``, under their names there
(``readme-<command>-<format>``: the README commands, whose stdout is
their golden file; ``pin-<name>``: the pins), then ``scale-*``: two runs
larger than any pin, in ``SCALE`` below.

Each launch is ``python -m divdiff`` in a fresh child, run from
``tests/golden/`` (a grid file's relative ``pl:`` path enters its report)
with this checkout's ``src/`` on ``PYTHONPATH``.  Its stdout is hashed and
counted as it streams, so a large report is never held in memory, and
the child's peak RSS comes from ``os.wait4``.  Every rung is launched
LAUNCHES times, one pass over all of them after another, so a drift in the
host's speed spreads over every rung.  For each rung the file records
the median and quartiles of the wall time, the exit code, the stdout
byte count and SHA-256, and the median and largest peak RSS.  Once per
file it records the time of a fixed pure-Python reference loop, the
host factor: divide a rung's time by it to compare hosts.  It also
records the commit, the Python version and the CPU count.

The exit status is 1 when a rung's stdout differs between launches or
from its pin, or its exit code from the pinned one; the file is written
either way.  Only the standard library is used.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
sys.path[:0] = [str(ROOT / "src"), str(GOLDEN_DIR)]

from check import CASES, Pin  # noqa: E402

# Recorded at the commit before the ladder existed, from tests/golden/.
SCALE = {
    "scale-minlip-13": Pin(
        ["minlip", "--N", "13", "--max-N", "13"],
        "a16d4b0889cace06b006b209d3d3d299a1cc55d3de245ca68ad4040cddf95be0",
    ),
    "scale-nullspace-16": Pin(
        ["nullspace", "--N", "16", "--max-N", "16"],
        "2dc25df0f4483cc7995145c63691bd338da7ccbe7e2a9c4105041dd556ed33a8",
    ),
}

RUNGS = {**CASES, **SCALE}

# Launches per rung: enough for a median and quartiles.
LAUNCHES = 5


class Launch(NamedTuple):
    seconds: float
    code: int
    stdout_bytes: int
    sha256: str
    peak_rss_kib: int


def launch(argv: list) -> Launch:
    """One ``python -m divdiff`` child on argv, from tests/golden/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    digest, count = hashlib.sha256(), 0
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "divdiff", *argv],
        cwd=GOLDEN_DIR, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        while chunk := proc.stdout.read(1 << 20):
            digest.update(chunk)
            count += len(chunk)
    # wait4 reaps the child, so Popen is told its exit code here.
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    rss = usage.ru_maxrss // 1024 if sys.platform == "darwin" else usage.ru_maxrss
    return Launch(seconds, proc.returncode, count, digest.hexdigest(), rss)


def reference_loop() -> int:
    """A fixed piece of pure-Python work: Fraction arithmetic, dict inserts
    and string formatting, about 50 ms on a shared 2-CPU host."""
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i * i + 1, 2 * i + 3)
    table = {}
    for i in range(100000):
        table[i * 7919 % 10007] = f"{i:x}"
    return total.numerator.bit_length() + len(table)


def host_factor_ms(samples: int = 7) -> float:
    """The median time of reference_loop, in milliseconds."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_loop()
        times.append((time.perf_counter() - start) * 1e3)
    return round(statistics.median(times), 3)


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summary(rung: Pin, launches: list) -> dict:
    """A rung's record over its launches; "ok" when every launch gave its pin."""
    digests = sorted({one.sha256 for one in launches})
    codes = sorted({one.code for one in launches})
    sizes = sorted({one.stdout_bytes for one in launches})
    rss = [one.peak_rss_kib / 1024 for one in launches]
    return {
        "argv": rung.argv,
        "ok": digests == [rung.digest] and codes == [rung.code],
        "code": codes[0] if len(codes) == 1 else codes,
        "stdout_bytes": sizes[0] if len(sizes) == 1 else sizes,
        "stdout_sha256": digests[0] if len(digests) == 1 else digests,
        "wall_s": _quartiles([one.seconds for one in launches]),
        "peak_rss_mib": {"median": round(statistics.median(rss), 1), "max": round(max(rss), 1)},
    }


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def record() -> dict:
    """Launch every rung LAUNCHES times; the BENCH file's contents."""
    factor = host_factor_ms()
    runs = {name: [] for name in RUNGS}
    for _ in range(LAUNCHES):
        for name, rung in RUNGS.items():
            runs[name].append(launch(rung.argv))
            print(f"{name}: {runs[name][-1].seconds:.3f} s", file=sys.stderr)
    return {
        "commit": _commit(),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "host_factor_ms": factor,
        "launches": LAUNCHES,
        "rungs": {name: summary(RUNGS[name], runs[name]) for name in RUNGS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes bench/BENCH_<label>.json")
    args = parser.parse_args(argv)
    result = record()
    path = ROOT / "bench" / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    bad = [name for name, rung in result["rungs"].items() if not rung["ok"]]
    for name in bad:
        print(f"FAIL {name}: {result['rungs'][name]}", file=sys.stderr)
    print(f"{path.name}: {len(result['rungs'])} rungs, {len(bad)} failed", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
