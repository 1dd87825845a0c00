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


def stub_tree(root, delay_s, slow_s=None):
    """A tree whose divdiff.cli.main only sleeps: for slow_s on the op
    ["slow"] when slow_s is given, for delay_s on any other."""
    package = root / "src" / "divdiff"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "cli.py").write_text(textwrap.dedent(f"""
        import time

        def main(argv):
            time.sleep({slow_s or delay_s} if argv == ["slow"] else {delay_s})
            return 0
    """), encoding="utf-8")
    return root


def test_two_copies_of_one_tree_read_a_pass_ratio_within_their_spread(tmp_path):
    clis = (interleave.load(ROOT, "divdiff_aa_parent"), interleave.load(ROOT, "divdiff_aa_change"))
    assert clis[0] is not clis[1] and clis[0].__name__ == "divdiff_aa_parent.cli"
    argvs = child._prepare(workloads.build("shifts", 1), tmp_path)[:8]
    result = interleave.summary(interleave.interleave(clis, argvs, passes=12), block=4)
    low, _, high = result["ratio"]
    assert low <= 1 <= high


def test_a_tree_that_sleeps_longer_reads_as_slower(tmp_path):
    clis = (interleave.load(stub_tree(tmp_path / "fast", 0.001), "divdiff_stub_fast"),
            interleave.load(stub_tree(tmp_path / "slow", 0.002), "divdiff_stub_slow"))
    result = interleave.summary(interleave.interleave(clis, [["probe"]] * 5, passes=4), block=4)
    assert result["change"]["wins"] == 0 and result["parent"]["wins"] == 4
    assert result["ratio"][0] > 1
    assert result["change"]["p50_ms"] > result["parent"]["p50_ms"] + 0.5
    assert result["change"]["pass_ms"][0] > result["parent"]["pass_ms"][2]


def test_a_tree_slower_on_one_op_reads_the_larger_tail(tmp_path):
    # Three slow ops in 25 are 12 of a block's 100 times, past the p90
    # that ten samples beyond allow: the tail reads them, the p50 does not.
    clis = (interleave.load(stub_tree(tmp_path / "even", 0.001), "divdiff_stub_even"),
            interleave.load(stub_tree(tmp_path / "tail", 0.001, 0.004), "divdiff_stub_tail"))
    argvs = [["probe"]] * 22 + [["slow"]] * 3
    result = interleave.summary(interleave.interleave(clis, argvs, passes=8), block=4)
    assert result["tail_p"] == 90
    assert result["change"]["tail_ms"] > result["parent"]["tail_ms"] + 2
    assert abs(result["change"]["p50_ms"] - result["parent"]["p50_ms"]) < 1
