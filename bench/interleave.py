"""Two trees' divdiff in one process, op by op: a parent against a change.

    python bench/interleave.py PARENT CHANGE --workload shifts [--seed 1] [--passes 10]

PARENT and CHANGE are checkouts.  Each one's ``src/divdiff`` is imported
under its own package name (``divdiff_parent``, ``divdiff_change``), so
that both live in this one process.  The ops are one pass of a perfbench
workload at the seed (``perfbench/workloads.py`` of this checkout; its
grid files and ``--out`` paths are made in a temporary directory).  Each
op runs on both trees back to back, and which tree goes first alternates
from op to op and from pass to pass.  One untimed pass warms both trees
up; then each call of ``cli.main`` is timed alone, with its stdout and
stderr kept in memory, as perfbench does.

For each tree it prints the median pass time with its quartiles, the
passes it won, the p50 and p90 of its op times, and perfbench's tail of
them: over each block of as many passes as a 12 s perfbench run makes
(``workloads.passes_for``), the nearest-rank percentile that
``workloads.tail_percentile`` picks for the block's op count, and the
median over the blocks.  Then it prints the change's pass time over the
parent's, per pass: the median and the range.  A
per-op cost too small to resolve from a launch (60 us inside a 100 ms
launch) shows here, because the two trees share every drift of the
host's speed.  Only the standard library is used.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import child  # noqa: E402
import workloads  # noqa: E402

SIDES = ("parent", "change")


def load(tree, name):
    """The cli module of tree's src/divdiff, imported as the package name."""
    package = Path(tree) / "src" / "divdiff"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        main(list(argv))
        return time.perf_counter_ns() - start


def interleave(clis, argvs, passes):
    """Each side's op times in ns, pass by pass: {side: [[ns per op], ...]}.

    clis holds the parent's and the change's cli modules, in that order.
    """
    times = {side: [] for side in SIDES}
    for p in range(passes + 1):  # pass 0 warms up
        row = {side: [] for side in SIDES}
        for i, argv in enumerate(argvs):
            order = (0, 1) if (i + p) % 2 == 0 else (1, 0)
            for k in order:
                row[SIDES[k]].append(_call(clis[k].main, argv))
        if p:
            for side in SIDES:
                times[side].append(row[side])
    return times


def _nearest_rank(values, q):
    """The q-th percentile of values by nearest rank, as perfbench takes it."""
    values = sorted(values)
    return values[max(1, math.ceil(q / 100.0 * len(values))) - 1]


def summary(times, block):
    """Per side: pass-time median and quartiles, wins, op p50 and p90 and
    the perfbench tail over blocks of block passes (ms); the tail's
    percentile; and the change's pass time over the parent's per pass.
    Fewer passes than block make one block."""
    totals = {side: [sum(row) / 1e6 for row in times[side]] for side in SIDES}
    block = min(block, len(totals["parent"]))
    tail_p = workloads.tail_percentile(block * len(times["parent"][0]))
    result = {"tail_p": tail_p}
    for side, other in zip(SIDES, reversed(SIDES)):
        ops = [ns / 1e6 for row in times[side] for ns in row]
        rows = times[side]
        tails = [_nearest_rank([ns / 1e6 for row in rows[i:i + block] for ns in row], tail_p)
                 for i in range(0, len(rows) - block + 1, block)]
        result[side] = {
            "pass_ms": tuple(statistics.quantiles(totals[side], n=4)),
            "wins": sum(a < b for a, b in zip(totals[side], totals[other])),
            "p50_ms": _nearest_rank(ops, 50),
            "p90_ms": _nearest_rank(ops, 90),
            "tail_ms": statistics.median(tails),
        }
    ratios = [c / p for p, c in zip(totals["parent"], totals["change"])]
    result["ratio"] = (min(ratios), statistics.median(ratios), max(ratios))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=10, help="timed passes, at least 2")
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")
    clis = (load(args.parent, "divdiff_parent"), load(args.change, "divdiff_change"))
    with tempfile.TemporaryDirectory(prefix="divdiff-interleave-") as tmp:
        argvs = child._prepare(workloads.build(args.workload, args.seed), Path(tmp))
        block = workloads.passes_for(args.workload, 12)
        result = summary(interleave(clis, argvs, args.passes), block)
    print(f"{args.workload} seed {args.seed}: {len(argvs)} ops, {args.passes} passes after 1 warm-up")
    tail = f"p{result['tail_p']:g} ms"
    print(f"side     pass ms [q1 median q3]       wins   op p50 ms   op p90 ms  {tail:>11}")
    for side in SIDES:
        s = result[side]
        q1, median, q3 = s["pass_ms"]
        print(f"{side:8} {q1:8.2f} {median:8.2f} {q3:8.2f}  {s['wins']:5}  "
              f"{s['p50_ms']:10.4f}  {s['p90_ms']:10.4f}  {s['tail_ms']:11.4f}")
    low, median, high = result["ratio"]
    print(f"change/parent pass time: median {median:.4f}, range {low:.4f} .. {high:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
