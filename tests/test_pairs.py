"""The verdicts of ``tools/pairs.py``: a gain holds only over ten or more
pairs, won in at least nine of ten, with a median gap above REV's IQR; a
median worse by more than the metric's bound regresses, and a REV spread
wider than the bound leaves the judgement unresolved."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import pairs  # noqa: E402
from pairs import regression, verdict  # noqa: E402

HIGHER = {"name": "runs_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "base_run_s", "better": "lower", "bound": 0.25}


def claim(line):
    return line.rsplit("claim ", 1)[1]


@pytest.mark.parametrize("n", [1, 2, 9])
def test_fewer_than_ten_pairs_make_no_claim(n):
    parent = [1.0 + 0.01 * i for i in range(n)]
    change = [2.0 + 0.01 * i for i in range(n)]
    assert claim(verdict(HIGHER, parent, change)) == "n/a"


def test_ten_clear_wins_hold():
    parent = [1.0 + 0.01 * i for i in range(10)]
    assert claim(verdict(HIGHER, parent, [p + 1 for p in parent])) == "holds"
    assert claim(verdict(LOWER, parent, [p - 0.5 for p in parent])) == "holds"


def test_eight_wins_of_ten_fail():
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [p + 1 for p in parent[:8]] + [p - 1 for p in parent[8:]]
    line = verdict(HIGHER, parent, change)
    assert "wins 8/10" in line and claim(line) == "fails"


def test_gap_within_parent_iqr_fails():
    parent = [1.0 + 0.1 * i for i in range(10)]  # IQR about 0.5
    line = verdict(HIGHER, parent, [p + 0.2 for p in parent])
    assert "wins 10/10" in line and claim(line) == "fails"


def test_wins_in_the_wrong_direction_fail():
    parent = [1.0 + 0.01 * i for i in range(10)]
    line = verdict(LOWER, parent, [p + 1 for p in parent])
    assert "wins 0/10" in line and claim(line) == "fails"


def test_no_pairs_are_refused():
    with pytest.raises(SystemExit):
        pairs.main(["HEAD", "--workload", "experiment", "--pairs", "0"])


def test_a_negative_first_seed_is_refused():
    with pytest.raises(SystemExit):
        pairs.main(["HEAD", "--workload", "experiment", "--first-seed", "-1"])


TIGHT = [1.0 + 0.001 * i for i in range(10)]    # IQR about 0.5% of the median
WIDE = [1.0 + 0.1 * i for i in range(10)]       # IQR about 32% of the median


@pytest.mark.parametrize("metric, change, want", [
    (LOWER, [p * 1.3 for p in TIGHT], "regressed"),
    (LOWER, [p * 1.2 for p in TIGHT], "within bound"),
    (LOWER, [p * 0.5 for p in TIGHT], "within bound"),
    (HIGHER, [p * 0.7 for p in TIGHT], "regressed"),
    (HIGHER, [p * 0.8 for p in TIGHT], "within bound"),
    (HIGHER, [p * 1.5 for p in TIGHT], "within bound"),
])
def test_a_median_worse_by_more_than_the_bound_regresses(metric, change,
                                                         want):
    assert regression(metric, TIGHT, change) == want
    assert want in verdict(metric, TIGHT, change)


@pytest.mark.parametrize("change", [WIDE, [p * 1.5 for p in WIDE],
                                    [p * 0.9 for p in WIDE]])
def test_a_parent_spread_wider_than_the_bound_is_unresolved(change):
    assert regression(LOWER, WIDE, change) == "unresolved"


def test_a_change_that_beats_every_parent_run_is_resolved():
    assert regression(LOWER, WIDE, [0.5] * 10) == "within bound"
    assert regression(HIGHER, WIDE, [2.5] * 10) == "within bound"
    assert regression(LOWER, WIDE, [0.5] * 9 + [1.0]) == "unresolved"


def test_pairs_run_seeds_from_the_first_seed(monkeypatch, capsys):
    """Pair i runs seed FIRST_SEED + i on both trees, REV first in even
    pairs; nothing is unpacked or run for real."""
    seen = []

    def run(root, workload, seed, seconds):
        seen.append(("tree" if root == pairs.TREE else "rev", seed))
        return {"metrics": {"runs_per_s": {"value": 1.0}}, "failed": 0,
                "attempted": 1}
    monkeypatch.setattr(pairs, "unpack", lambda rev, dest: None)
    monkeypatch.setattr(pairs, "bench_run", run)
    assert pairs.main(["HEAD", "--workload", "experiment", "--pairs", "3",
                       "--first-seed", "101"]) == 0
    assert seen == [("rev", 101), ("tree", 101), ("tree", 102),
                    ("rev", 102), ("rev", 103), ("tree", 103)]
    out = capsys.readouterr().out
    assert "seeds 101..103" in out
    assert "within bound  claim n/a" in out
