"""``bench_pairs.py``'s summary, verdicts and problem lines on synthetic
pairs; no perfbench run."""

import pytest

from bench_pairs import summarize, verdicts, workload_problems

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
RATE = {"name": "runs_per_s", "better": "higher", "bound": 0.25}


def pairs_of(parent, change, metric=WALL):
    """Pairs whose ``metric`` reads ``parent[i]`` and ``change[i]``, every run
    correct and none failed."""
    return [{side: {metric["name"]: value, "correct": True, "failed": 0, "attempted": 1}
             for side, value in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


def judge(parent, change, metric=WALL) -> list:
    pairs = pairs_of(parent, change, metric)
    return verdicts(metric, summarize(pairs, [metric])[metric["name"]], pairs)


@pytest.mark.parametrize("change, want, problems", [
    (1.26, ["WORSE"], ["grid: wall_s is WORSE than the bound 0.25 allows"]),
    (1.24, ["ok"], []),
])
def test_worse_just_past_the_bound_and_ok_just_inside(change, want, problems):
    assert judge([1.0] * 10, [change] * 10) == want
    # a WORSE verdict is a problem line, which makes the exit status 1
    pairs = pairs_of([1.0] * 10, [change] * 10)
    assert workload_problems("grid", pairs, [WALL], summarize(pairs, [WALL])) == problems


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    # quartiles 0.75 and 1.25 about a median of 1: a spread of 0.5
    parent = [0.5 + i / 9 for i in range(10)]
    assert judge(parent, parent[::-1]) == ["ok", "unresolved"]


def test_not_unresolved_when_every_change_run_beats_every_parent_run():
    parent = [0.5 + i / 9 for i in range(10)]
    assert "unresolved" not in judge(parent, [0.45] * 10)


@pytest.mark.parametrize("better_pairs, gain", [(9, True), (8, False)])
def test_gain_at_nine_of_ten_better_pairs(better_pairs, gain):
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [0.8] * better_pairs + [1.2] * (10 - better_pairs)
    assert ("gain" in judge(parent, change)) is gain


def test_higher_is_better_metric():
    pairs = pairs_of([10.0] * 10, [13.0] * 10, RATE)
    entry = summarize(pairs, [RATE])["runs_per_s"]
    assert entry["change_better_pairs"] == 10
    assert entry["median_change_rel"] == pytest.approx(0.3)
    assert verdicts(RATE, entry, pairs) == ["ok", "gain"]
    assert judge([10.0] * 10, [7.0] * 10, RATE) == ["WORSE"]


def test_tied_pairs_count_for_neither_side():
    pairs = pairs_of([1.0] * 10, [1.0] * 10)
    entry = summarize(pairs, [WALL])["wall_s"]
    assert (entry["tied_pairs"], entry["change_better_pairs"]) == (10, 0)
    assert entry["median_change_rel"] == 0.0
    assert verdicts(WALL, entry, pairs) == ["ok"]


def test_relative_change_is_none_at_a_zero_parent_median():
    pairs = pairs_of([0.0] * 10, [1.0] * 10)
    assert summarize(pairs, [WALL])["wall_s"]["median_change_rel"] is None


def test_a_larger_failed_share_and_an_incorrect_run_are_problems():
    pairs = pairs_of([1.0] * 10, [1.0] * 10)
    pairs[3]["change"]["failed"] = 1
    pairs[5]["parent"]["correct"] = False
    found = workload_problems("ensemble", pairs, [WALL], summarize(pairs, [WALL]))
    assert found == ["ensemble: failed share 0.1 against 0",
                     "ensemble: a parent run is not correct"]
