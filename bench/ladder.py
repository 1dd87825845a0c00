"""The ladder: divdiff launches timed end to end, written to BENCH_<label>.json.

    python bench/ladder.py --label <label>

Each rung is one argv of the ``divdiff`` command line, with the SHA-256
and exit code its report must give.  The rungs are the cases of ``CASES``
in ``tests/golden/check.py``, under their names there
(``readme-<command>-<format>``: the README commands, whose stdout is
their golden file; ``pin-<name>``: the pins), then the whole launches at
scale of ``SCALE`` there, as ``scale-<name>``.

Each launch is one ``check.launch``, unbounded, with this checkout's
``src/`` first on ``PYTHONPATH``: its report is hashed and counted 64 KiB
at a time, never held.  The child's peak RSS from ``os.wait4`` counts the
ladder's own at the spawn, about 22 MiB, so a smaller child reads that
floor.  Every rung is launched LAUNCHES times, one pass over all of them
after another, so a drift in the host's speed spreads over every rung.
For each rung the file records the median and quartiles of the wall
time, the exit code, the report byte count and SHA-256 (as
``stdout_bytes`` and ``stdout_sha256``), and the median and largest peak
RSS.  Once per file it records the time of a fixed pure-Python reference
loop, the host factor: divide a rung's time by it to compare hosts.  It
also records the commit, the Python version and the CPU count.

The exit status is 1 when a rung's report differs between launches or
from its pin, or its exit code from the pinned one; the file is written
either way.  Only the standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests" / "golden")]

from check import CASES, SCALE, Pin, launch  # noqa: E402

RUNGS = {**CASES, **{f"scale-{name}": run for name, run in SCALE.items()}}

# Launches per rung: enough for a median and quartiles.
LAUNCHES = 5


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
    sizes = sorted({one.size for one in launches})
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
