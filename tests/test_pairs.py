"""The claim verdict of ``tools/pairs.py``: a gain holds only over ten or
more pairs, won in at least nine of ten, with a median gap above REV's IQR."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from pairs import verdict  # noqa: E402

HIGHER = {"name": "runs_per_s", "better": "higher"}
LOWER = {"name": "base_run_s", "better": "lower"}


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
    from pairs import main
    with pytest.raises(SystemExit):
        main(["HEAD", "--workload", "experiment", "--pairs", "0"])
