"""The interleaving tool tells one tree from itself and a slower tree
from a faster one.

    python -m pytest bench
"""

import textwrap
from pathlib import Path

import interleave
import workloads
from interleave import child

ROOT = Path(__file__).resolve().parent.parent


def stub_tree(root, delay_s):
    """A tree whose divdiff.cli.main only sleeps for delay_s."""
    package = root / "src" / "divdiff"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "cli.py").write_text(textwrap.dedent(f"""
        import time

        def main(argv):
            time.sleep({delay_s})
            return 0
    """), encoding="utf-8")
    return root


def test_two_copies_of_one_tree_read_a_pass_ratio_within_their_spread(tmp_path):
    clis = (interleave.load(ROOT, "divdiff_aa_parent"), interleave.load(ROOT, "divdiff_aa_change"))
    assert clis[0] is not clis[1] and clis[0].__name__ == "divdiff_aa_parent.cli"
    argvs = child._prepare(workloads.build("shifts", 1), tmp_path)[:8]
    result = interleave.summary(interleave.interleave(clis, argvs, passes=12))
    low, _, high = result["ratio"]
    assert low <= 1 <= high


def test_a_tree_that_sleeps_longer_reads_as_slower(tmp_path):
    clis = (interleave.load(stub_tree(tmp_path / "fast", 0.001), "divdiff_stub_fast"),
            interleave.load(stub_tree(tmp_path / "slow", 0.002), "divdiff_stub_slow"))
    result = interleave.summary(interleave.interleave(clis, [["probe"]] * 5, passes=4))
    assert result["change"]["wins"] == 0 and result["parent"]["wins"] == 4
    assert result["ratio"][0] > 1
    assert result["change"]["p50_ms"] > result["parent"]["p50_ms"] + 0.5
    assert result["change"]["pass_ms"][0] > result["parent"]["pass_ms"][2]
