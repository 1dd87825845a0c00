"""One workload run in a fresh interpreter: the benchmark's closed-loop client.

Started by run.py.  It imports divdiff from the checkout's ``src/``,
builds the seeded op list, writes the grid files, then sends the ops to
``divdiff.cli.main`` one after another in this single thread, capturing
stdout and stderr in memory.  Only the call itself is timed.  Outside the
timed region it keeps the first pass's outputs in a spool directory for
run.py to check, and requires every later pass to reproduce them byte for
byte.  Each op has a deadline; an op that misses it is recorded and the
run goes on.

With --setup-only it stops just before the first op, so run.py can time
set-up on its own.  With --trace 1 it alternates untraced and traced
passes and adds per-layer totals for the traced ones.

Results go to <workdir>/result.json.
"""

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_PERIOD_S = 0.01  # reference samples inside an op
SAMPLE_GAP_NS = 10_000_000  # and between ops, at least this often
NEIGHBOURS = 5  # samples on either side of an op that also set its speed
OVERALL_LIMIT_S = 140.0  # ops not started by then count as failed


class DeadlineExceeded(BaseException):
    """Raised inside an op past its deadline; BaseException so divdiff cannot swallow it."""


class Sampler:
    """Reference-speed samples, taken between ops and, by SIGALRM, inside them.

    A sample is (position, ns): position i for a sample inside op i and
    i - 0.5 for one taken just before it.  The alarm fires every
    SAMPLE_PERIOD_S during an op; its handler also enforces the deadline.
    The time the handler spends is subtracted from the op's time.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.position = 0.0
        self.deadline_ns = None
        self.spent_ns = 0

    def take(self, position: float) -> None:
        self.samples.append((position, speed.reference_ns()))

    def on_alarm(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        if self.deadline_ns is not None and start > self.deadline_ns:
            raise DeadlineExceeded()
        self.take(self.position)
        self.spent_ns += time.perf_counter_ns() - start

    def factors(self, count: int) -> list:
        """Per op, the reference-speed factor from the samples inside it and the
        NEIGHBOURS nearest on either side."""
        positions = [p for p, _ in self.samples]
        factors = []
        for i in range(count):
            lo = bisect.bisect_left(positions, i)
            hi = bisect.bisect_right(positions, i)
            window = self.samples[max(0, lo - NEIGHBOURS): hi + NEIGHBOURS]
            factors.append(speed.scale([ns for _, ns in window]))
        return factors


def _import_divdiff():
    src = ROOT / "src"
    if not (src / "divdiff" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'divdiff'} not found; run from a divdiff checkout")
    sys.path.insert(0, str(src))
    import divdiff.cli

    if Path(divdiff.__file__).resolve().parent != (src / "divdiff").resolve():
        raise SystemExit(f"perfbench: imported divdiff from {divdiff.__file__}, not from {src}")
    return divdiff.cli


def _prepare(spec: dict, workdir: Path) -> list:
    """Write grid files; return each op's argv with placeholders filled in."""
    grid_dir = workdir / "grids"
    grid_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, grid in spec["grids"].items():
        path = grid_dir / f"{name}.csv"
        lines = [f"L={grid['L']}"] + [f"{k},{v}" for k, v in grid["entries"].items()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[name] = str(path)
    out_dir = workdir / "out"
    out_dir.mkdir(exist_ok=True)
    argvs = []
    for op in spec["ops"]:
        argv = []
        for token in op["argv"]:
            if token.startswith("pl:@"):
                token = "pl:" + paths[token[4:]]
            elif token == "@out":
                token = str(out_dir / f"{op['id']}.{op['format']}")
            argv.append(token)
        argvs.append(argv)
    return argvs


def _call(main, argv: list, sampler: Sampler, position: int, deadline_s: float):
    """Run one op; returns (status, exit code, elapsed ns, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code, status = None, "ok"
    sampler.position = position
    sampler.spent_ns = 0
    start = end = spent = 0
    try:
        try:
            sampler.deadline_ns = time.perf_counter_ns() + int(deadline_s * 1e9)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
            start = time.perf_counter_ns()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            end = time.perf_counter_ns()
            spent = sampler.spent_ns
            signal.setitimer(signal.ITIMER_REAL, 0)
            sampler.deadline_ns = None
    except DeadlineExceeded:
        status = "deadline"
    except (Exception, SystemExit):
        status = "exception"
        err.write(traceback.format_exc())
    return status, code, end - start - spent, out.getvalue(), err.getvalue()


def run(args) -> dict:
    cli = _import_divdiff()
    workdir = Path(args.workdir)
    spec = workloads.build(args.workload, args.seed)
    argvs = _prepare(spec, workdir)
    ops = spec["ops"]
    passes = workloads.passes_for(args.workload, args.seconds)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        schedule = [p % 2 == 1 for p in range(max(2, passes))]
    else:
        tracer = None
        schedule = [False] * passes
    deadline_s = workloads.DEADLINE_SECONDS[args.workload]
    spool = workdir / "spool"
    spool.mkdir(exist_ok=True)
    sampler = Sampler()
    signal.signal(signal.SIGALRM, sampler.on_alarm)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    attempts, digests, op_self = [], {}, []
    last_sample = 0
    for pass_index, traced in enumerate(schedule):
        if traced:
            tracer.install()
        for op, argv in zip(ops, argvs):
            position = len(attempts)
            if time.monotonic() - ready > OVERALL_LIMIT_S:
                attempts.append([pass_index, op["id"], traced, 0, None, "skipped"])
                continue
            if time.perf_counter_ns() - last_sample >= SAMPLE_GAP_NS:
                sampler.take(position - 0.5)
                last_sample = time.perf_counter_ns()
            if traced:
                tracer.op_id = position
            status, code, elapsed, stdout, stderr = _call(cli.main, argv, sampler, position, deadline_s)
            if traced:
                op_self.append((position, tracer.take_op()))
            # Outside the timed region: collect and compare the outputs.
            file_text = None
            if op["out"] and os.path.exists(argv[-1]):
                file_text = Path(argv[-1]).read_text(encoding="utf-8")
                os.remove(argv[-1])
            blob = "\0".join((str(code), stdout, stderr, file_text or "")).encode("utf-8")
            digest = hashlib.sha256(blob).hexdigest()
            if op["id"] not in digests:
                digests[op["id"]] = digest
                (spool / f"{op['id']}.json").write_text(json.dumps(
                    {"code": code, "stdout": stdout, "stderr": stderr, "file": file_text}))
            elif status == "ok" and digests[op["id"]] != digest:
                status = "not reproduced"
            attempts.append([pass_index, op["id"], traced, elapsed, code, status])
        if traced:
            tracer.uninstall()
    sampler.take(len(attempts) - 0.5)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    factors = sampler.factors(len(attempts))
    for attempt, factor in zip(attempts, factors):
        attempt.append(attempt[3] * factor / 1e6)  # reference-speed ms
    result = {
        "ready": ready,
        "passes": len(schedule),
        "pass_length": len(ops),
        "maxrss_kb": maxrss_kb,
        "attempts": attempts,
        "samples": len(sampler.samples),
        "factor_median": sorted(factors)[len(factors) // 2],
    }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, op_self, factors, sum(schedule))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}.bin")
    return result


def _trace_summary(tracer, op_self: list, factors: list, traced_passes: int) -> dict:
    """Per-layer totals per traced pass; self times at reference speed."""
    layers = tracer.index
    self_ms = [0.0] * len(layers)
    for position, per_layer in op_self:
        for i, ns in enumerate(per_layer):
            self_ms[i] += ns * factors[position] / 1e6
    return {
        "layers": {
            name: {"calls": tracer.calls[i] / traced_passes, "self_ms": self_ms[i] / traced_passes}
            for name, i in layers.items()
        },
        "max_bits": tracer.max_bits,
        "report_bytes": tracer.report_bytes / traced_passes,
        "lps": tracer.lps / traced_passes,
        "useful_lps": tracer.useful_lps / traced_passes,
        "grid_functions": tracer.grid_functions / traced_passes,
        "spans": tracer.span_count(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="one divdiff benchmark run in a fresh interpreter")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = run(args)
    Path(args.workdir, "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
