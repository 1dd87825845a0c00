"""The ladder's launches give their pinned bytes, and the committed
recording lists every rung with its pin.

    python -m pytest bench
"""

import json
from pathlib import Path

import pytest

import ladder

# The latest recording of every rung; a newer recording replaces this name.
# BENCH_seed.json stays as the baseline, under the rung names of its day.
RECORDED = Path(__file__).with_name("BENCH_launch.json")

# Cheap rungs: a relative pl: path, the exit code of an infeasible minlip,
# and a zero-extended grid file.
CHEAP = ["readme-probe-csv", "pin-minlip-2-infeasible", "pin-fd-zigzag-extended"]


@pytest.mark.parametrize("name", CHEAP)
def test_a_rung_repeats_its_pin(name):
    rung = ladder.RUNGS[name]
    launches = [ladder.launch(rung.argv) for _ in range(2)]
    assert [(one.code, one.sha256) for one in launches] == [(rung.code, rung.digest)] * 2
    assert launches[0].size == launches[1].size > 0
    assert all(one.peak_rss_kib > 0 and one.seconds > 0 for one in launches)
    assert ladder.summary(rung, launches)["ok"]


def test_a_large_report_leaves_the_next_rungs_rss_alone():
    # A child's peak RSS counts its parent's at the spawn: a launcher that
    # held nullspace-16's 55 MB report would raise every later rung's.
    small = ladder.RUNGS["readme-probe-csv"].argv
    alone = ladder.launch(small).peak_rss_kib
    assert ladder.launch(ladder.RUNGS["scale-nullspace-16-json"].argv).size > 50 << 20
    assert ladder.launch(small).peak_rss_kib <= alone


def test_the_recording_lists_every_rung_with_its_pin():
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    assert list(recorded["rungs"]) == list(ladder.RUNGS)
    for name, rung in ladder.RUNGS.items():
        entry = recorded["rungs"][name]
        assert entry["argv"] == rung.argv, name
        assert (entry["ok"], entry["code"], entry["stdout_sha256"]) == (True, rung.code, rung.digest)
        wall = entry["wall_s"]
        assert 0 < wall["q1"] <= wall["median"] <= wall["q3"], name
    assert recorded["launches"] == ladder.LAUNCHES and recorded["host_factor_ms"] > 0

