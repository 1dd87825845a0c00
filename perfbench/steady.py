"""Steadiness check: repeat run.py over seeds and compare spreads with the bounds.

    python3 perfbench/steady.py --runs 10 [--workload kernels ...] [--record perfbench/steadiness.json]

For every workload and end-to-end metric it prints the median over the
runs and the spread, (Q3 - Q1) / median with quartiles from
statistics.quantiles(values, n=4).  A spread must stay below the
metric's bound in BENCHMARK.json (set-up time excepted: its median is
compared between commits, not its spread).  The exit status is 1 when a
spread exceeds its bound or a run fails, else 0.  --record writes the
runs, medians and spreads as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="repeat the benchmark and check its spreads")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", help="write the runs and spreads to this JSON file")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    record = {"python": platform.python_version(), "nproc": os.cpu_count(), "seconds": args.seconds,
              "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s wall, "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = spread(values) if len(values) >= 2 else 0.0
            within = metric["name"] == "setup_s" or s < metric["bound"]
            ok &= within
            summary[metric["name"]] = {"median": statistics.median(values), "spread": s,
                                       "bound": metric["bound"], "within": within}
            print(f"  {workload:8s} {metric['name']:16s} median {statistics.median(values):10.5g} "
                  f"spread {s:6.3f} bound {metric['bound']:.2f} {'ok' if within else 'OVER'}", flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
