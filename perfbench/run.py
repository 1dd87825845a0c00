"""divdiff benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 12 --trace 0

Run from the root of a divdiff checkout; divdiff is imported from its
``src/`` and need not be installed.  The run:

1. times set-up (launching a fresh interpreter, ``import divdiff``,
   building the seeded inputs) in several child processes;
2. runs the workload in one more child process, a closed loop over a
   fixed op list sized from --seconds (see child.py);
3. checks every op's report against independently computed facts
   (checks.py) and its exit code;
4. prints a summary and, as the last line of stdout, one JSON object with
   the end-to-end metrics (--trace 0) or the per-layer metrics of a
   traced run (--trace 1).

Times are reported at reference speed (speed.py).  Everything the run
writes goes under .perfbench_work/ (removed at the end) and, for traced
runs, the span file under .perfbench_out/.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4  # set-up-only children; the measured child adds one more
RUN_LIMIT_S = 170.0


def _child(args, workdir: Path, setup_only: bool, timeout: float) -> tuple:
    """Launch child.py; return (launch time, its result dict, reference samples before launch)."""
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    before = speed.reference_samples()
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    return launched, result, before


def _percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _verify(spec: dict, spool: Path) -> dict:
    """op id -> None when its first-pass output is correct, else the reason."""
    verdicts = {}
    for op in spec["ops"]:
        path = spool / f"{op['id']}.json"
        if not path.exists():
            verdicts[op["id"]] = "no output captured"
            continue
        got = json.loads(path.read_text(encoding="utf-8"))
        verdicts[op["id"]] = checks.check(op, spec["grids"], got["code"], got["stdout"], got["stderr"],
                                          got["file"])
    return verdicts


def _ops_per_s(attempts: list, failed_ids: set) -> float:
    """Median over passes of verified ops per reference-speed second of the pass."""
    rates = []
    for p in sorted({a[0] for a in attempts}):
        in_pass = [a for a in attempts if a[0] == p]
        done = sum(1 for a in in_pass if a[5] == "ok" and a[1] not in failed_ids)
        seconds = sum(a[6] for a in in_pass) / 1000.0
        rates.append(done / seconds if seconds > 0 else 0.0)
    return statistics.median(rates)


def measure(args) -> dict:
    if not (ROOT / "src" / "divdiff" / "__init__.py").is_file():
        raise RuntimeError(f"{ROOT / 'src' / 'divdiff'} not found; run from the root of a divdiff checkout")
    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_SAMPLES):
            launched, result, before = _child(args, workdir / f"setup-{i}", True, 60.0)
            setups.append((result["ready"] - launched) * speed.scale(before + speed.reference_samples()))
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        launched, result, before = _child(args, workdir / "run", False, remaining)
        setups.append((result["ready"] - launched) * speed.scale(before + speed.reference_samples()))
        spec = workloads.build(args.workload, args.seed)
        verdicts = _verify(spec, workdir / "run" / "spool")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ids = {op_id for op_id, why in verdicts.items() if why is not None}
    attempts = result["attempts"]
    wrong = [a for a in attempts if a[1] in failed_ids or a[5] not in ("ok", "deadline", "skipped")]
    failed = sum(1 for a in attempts if a[1] in failed_ids or a[5] != "ok")
    for op_id in sorted(failed_ids):
        print(f"perfbench: op {op_id} {spec['ops'][op_id]['argv'][:3]}: {verdicts[op_id]}", file=sys.stderr)
    for a in attempts:
        if a[5] != "ok":
            print(f"perfbench: op {a[1]} pass {a[0]}: {a[5]}", file=sys.stderr)

    untraced = [a for a in attempts if not a[2]]
    latencies = sorted(a[6] for a in untraced)
    tail_p = workloads.tail_percentile(len(latencies))
    summary = {
        "correct": not wrong,
        "attempted": len(attempts),
        "failed": failed,
        "passes": result["passes"],
        "pass_length": result["pass_length"],
        "fail_ratio": failed / len(attempts),
        "tail_percentile": tail_p,
        "tail_samples_beyond": len(latencies) - math.ceil(tail_p / 100.0 * len(latencies)),
        "speed_factor_median": result["factor_median"],
    }
    if args.trace:
        trace = result["trace"]
        plain = _ops_per_s(untraced, failed_ids)
        traced = _ops_per_s([a for a in attempts if a[2]], failed_ids)
        layers = trace["layers"]
        metrics = {}
        for name, values in layers.items():
            metrics[f"{name}.calls"] = (values["calls"], "count")
            metrics[f"{name}.self_ms"] = (values["self_ms"], "ms")
        metrics.update({
            "differences.max_bits": (trace["max_bits"], "bits"),
            "simplex.useful_ratio": (trace["useful_lps"] / trace["lps"] if trace["lps"] else 0.0, "ratio"),
            "funcs.GridFunction.created": (trace["grid_functions"], "count"),
            "report.bytes": (trace["report_bytes"], "bytes"),
            "trace.untraced_ops_per_s": (plain, "ops/s"),
            "trace.traced_ops_per_s": (traced, "ops/s"),
            "trace.overhead_ops_per_s": (plain - traced, "ops/s"),
        })
    else:
        metrics = {
            "ops_per_s": (_ops_per_s(untraced, failed_ids), "ops/s"),
            "latency_p50_ms": (statistics.median(latencies), "ms"),
            "latency_tail_ms": (_percentile(latencies, tail_p), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MiB"),
        }
    summary["metrics"] = metrics
    return summary


def _selected_metrics(trace: int) -> list:
    """The metric names BENCHMARK.json lists for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="divdiff benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        selected = _selected_metrics(args.trace)
        summary = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {name: summary["metrics"][name] for name in selected}
    print(f"workload={args.workload} seed={args.seed} passes={summary['passes']}x{summary['pass_length']} "
          f"fail_ratio={summary['fail_ratio']:.4f} tail=p{summary['tail_percentile']:g} "
          f"({summary['tail_samples_beyond']} samples beyond) "
          f"speed_factor={summary['speed_factor_median']:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
