"""Tests of the benchmark itself.  Run with:  python3 -m pytest perfbench -q

The end-to-end tests launch run.py on every workload with a one-second
budget (one pass each), so the file takes a minute or two.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import steady
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))


def _run(*args, cwd=ROOT, timeout=300):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- op lists -------------------------------------------------------------


def _canonical(pass_spec: dict) -> bytes:
    return json.dumps(pass_spec, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_a_seed_gives_byte_identical_op_lists(name):
    assert _canonical(workloads.build(name, 7)) == _canonical(workloads.build(name, 7))
    assert _canonical(workloads.build(name, 7)) != _canonical(workloads.build(name, 8))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_the_seed_changes_numbers_not_the_shape_of_a_pass(name):
    def shape(seed):
        ops = workloads.build(name, seed)["ops"]
        return sorted(json.dumps([op["cmd"], op["format"], op["out"], op["expect_code"],
                                  {k: v for k, v in op["params"].items() if k in ("n", "N", "j", "sweep")}])
                      for op in ops)

    assert shape(1) == shape(2) == shape(3)


def test_generator_keeps_to_bounded_inputs():
    for name in workloads.NAMES:
        for op in workloads.build(name, 1)["ops"]:
            p = op["params"]
            if op["cmd"] == "telescope":
                assert p["n"] <= 7
            if op["cmd"] == "walkthrough":
                assert p["n"] <= 7 and p["N"] <= 1000
            if op["cmd"] == "probe":
                assert p["N"] <= 10_000
            if op["cmd"] in ("uniform", "identity", "interp", "fd"):
                assert p.get("n", 0) <= 256


def test_about_five_percent_of_kernel_ops_are_refusals():
    ops = workloads.build("kernels", 1)["ops"]
    refusals = [op for op in ops if op["expect_code"] != 0]
    assert {op["expect_code"] for op in refusals} == {1, 2}
    assert 0.03 <= len(refusals) / len(ops) <= 0.07


def test_tail_percentile_keeps_ten_samples_beyond():
    for samples in (20, 40, 100, 135, 270, 545, 2000):
        p = workloads.tail_percentile(samples)
        assert samples * (100 - p) / 100 >= 10 - 1e-9


# --- the checker ------------------------------------------------------------


def _outcome(argv):
    import contextlib
    import io

    import divdiff.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = divdiff.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _first(name, cmd, **params):
    spec = workloads.build(name, 3)
    for op in spec["ops"]:
        if op["cmd"] == cmd and all(op["params"].get(k) == v for k, v in params.items()) \
                and "pl:@" not in " ".join(op["argv"]) and not op["out"]:
            return op, spec["grids"]
    raise LookupError(cmd)


@pytest.mark.parametrize("cmd,params,field", [
    ("uniform", {"n": 8}, "divided_difference"),
    ("fd", {}, "value"),
    ("interp", {"n": 16}, "leading"),
    ("cascade", {}, "order"),
    ("minlip", {"N": 3}, "value"),
    ("probe", {}, "rows"),
    ("telescope", {}, "lhs"),
    ("walkthrough", {}, "f_at_x"),
])
def test_checker_accepts_the_seed_program_and_rejects_a_changed_value(cmd, params, field):
    name = "kernels" if cmd in ("uniform", "fd", "interp", "cascade") else "shifts"
    op, grids = _first("lattice" if cmd == "minlip" else name, cmd, **params)
    code, out, err = _outcome(op["argv"])
    assert checks.check(op, grids, code, out, err, None) is None
    doc = json.loads(out)
    value = doc["results"][field]
    if field == "rows":
        value[0]["average"] = str(Fraction(value[0]["average"]) + 1)
    elif isinstance(value, int):
        doc["results"][field] = value + 1
    else:
        doc["results"][field] = str(Fraction(value) + Fraction(1, 3))
    assert checks.check(op, grids, code, json.dumps(doc), err, None) is not None


@pytest.mark.parametrize("fmt_name", ["json", "csv"])
def test_checker_catches_a_vector_outside_the_null_space(fmt_name):
    op = next(op for op in workloads.build("reports", 1)["ops"]
              if op["params"].get("N") == 9 and op["format"] == fmt_name and not op["out"])
    code, out, err = _outcome(op["argv"])
    assert checks.check(op, {}, code, out, err, None) is None
    # Grid point 0 is constrained by f(0) = 0, so no basis vector may touch it.
    if fmt_name == "json":
        doc = json.loads(out)
        doc["results"]["basis"][0]["0"] = "1"
        broken = json.dumps(doc)
    else:
        broken = out.replace("results.basis[0].", "results.basis[0].0,1\nresults.basis[0].", 1)
    assert broken != out
    assert checks.check(op, {}, code, broken, err, None) is not None


def test_checker_wants_documented_refusals():
    op = next(op for op in workloads.build("kernels", 1)["ops"] if op["params"].get("refusal") == "pole")
    code, out, err = _outcome(op["argv"])
    assert code == 2 and checks.check(op, {}, code, out, err, None) is None
    assert checks.check(op, {}, 1, out, err, None) is not None
    assert checks.check(op, {}, code, out, "Traceback (most recent call last):\n" + err, None) is not None


# --- tracing and deadlines ------------------------------------------------


def test_tracer_rebinds_every_imported_name_and_restores_it():
    import divdiff.cli
    import divdiff.extremal
    import divdiff.simplex
    import tracing

    original = divdiff.simplex.solve_lp
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert divdiff.extremal.solve_lp is divdiff.simplex.solve_lp is not original
        code, _, _ = _outcome(["minlip", "--N", "3"])
    finally:
        tracer.uninstall()
    assert code == 0 and divdiff.extremal.solve_lp is original
    assert tracer.calls[tracer.index["simplex.solve_lp"]] == tracer.lps > 0
    assert tracer.calls[tracer.index["cli.main"]] == 1
    assert 0 < tracer.useful_lps <= tracer.lps


def test_an_op_past_its_deadline_fails_and_the_next_one_runs():
    import signal

    import child
    import divdiff.cli

    sampler = child.Sampler()
    previous = signal.signal(signal.SIGALRM, sampler.on_alarm)
    try:
        status, *_ = child._call(divdiff.cli.main, ["minlip", "--N", "4"], sampler, 0, 0.02)
        assert status == "deadline"
        status, code, *_ = child._call(divdiff.cli.main, ["nullspace", "--N", "3"], sampler, 1, 30.0)
        assert (status, code) == ("ok", 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


# --- the command ----------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_command_prints_every_metric_with_its_unit(name, trace):
    result = _result(_run("--workload", name, "--seed", 5, "--seconds", 1, "--trace", trace))
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if m["unit"] in ("ms", "s", "count"):
            assert got["value"] > 0, m["name"]  # every layer works in every workload


def test_traced_counts_repeat_exactly():
    runs = [_result(_run("--workload", "lattice", "--seed", 9, "--seconds", 1, "--trace", 1)) for _ in range(2)]
    for name in ("simplex.solve_lp.calls", "funcs.GridFunction.created", "differences.max_bits", "report.bytes"):
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").parent.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "kernels", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- steadiness -------------------------------------------------------------


def test_recorded_runs_stay_within_the_bounds():
    """steadiness.json holds the ten-seed runs made with steady.py on the
    unchanged program; every spread but set-up time's must be inside its bound."""
    record = json.loads((ROOT / "perfbench" / "steadiness.json").read_text(encoding="utf-8"))
    assert record["seconds"] == SPEC["run_seconds"]
    assert set(record["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, data in record["workloads"].items():
        assert len(data["runs"]) >= 10
        for metric in SPEC["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in data["runs"]]
            assert all(v > 0 for v in values)
            if metric["name"] != "setup_s":
                assert steady.spread(values) < metric["bound"], (name, metric["name"])
