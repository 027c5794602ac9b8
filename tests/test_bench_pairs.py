"""The summary of tools/bench_pairs.py, on made-up results (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "score", "better": "higher"}]


def result(wall, score=1.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"wall_s": {"value": wall}, "score": {"value": score}}}


def test_a_clear_gain_is_claimed():
    pairs = [(result(1.0 + 0.01 * i), result(0.8 + 0.01 * i)) for i in range(10)]
    m = bench_pairs.summarize(pairs, METRICS)["metrics"]["wall_s"]
    assert m["wins"] == 10 and m["pairs"] == 10
    assert m["parent"] == pytest.approx((1.0225, 1.045, 1.0675))
    assert m["ratio"] == pytest.approx(0.845 / 1.045)
    assert m["claim"]


def test_nine_wins_but_a_gap_inside_the_parents_spread_is_no_claim():
    # the parent's IQR (0.5) is larger than the gap of the medians (0.1)
    parent = [1.0, 1.5, 2.0, 1.0, 1.5, 2.0, 1.0, 1.5, 2.0, 1.5]
    pairs = [(result(p), result(p - 0.1)) for p in parent]
    pairs[0] = (result(1.0), result(1.2))
    m = bench_pairs.summarize(pairs, METRICS)["metrics"]["wall_s"]
    assert m["wins"] == 9
    assert not m["claim"]


def test_eight_wins_are_no_claim_and_higher_is_better_where_declared():
    pairs = [(result(1.0, score=1.0), result(0.5 if i < 8 else 2.0, score=2.0))
             for i in range(10)]
    summary = bench_pairs.summarize(pairs, METRICS)["metrics"]
    assert summary["wall_s"]["wins"] == 8 and not summary["wall_s"]["claim"]
    assert summary["score"]["wins"] == 10 and summary["score"]["claim"]


def test_incorrect_runs_and_failed_ops_are_flagged():
    pairs = [(result(1.0), result(0.9)), (result(1.0, correct=False), result(0.9, failed=2))]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["flags"] == ["pair 1 parent: correct=False failed=0/4",
                                "pair 1 change: correct=True failed=2/4"]
    assert any(line.startswith("FLAG pair 1 change") for line in bench_pairs.report(summary))


def test_a_metric_missing_from_a_run_is_left_out():
    broken = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    summary = bench_pairs.summarize([(result(1.0), broken)], METRICS)
    assert summary["metrics"] == {}
    assert len(summary["flags"]) == 1
