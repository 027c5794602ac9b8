"""The summary of tools/bench_pairs.py, on made-up results (no benchmark runs)."""

import importlib.util
import resource
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "score", "better": "higher"}]


def result(wall, score=1.0, correct=True, failed=0, faults=1000):
    return {"correct": correct, "attempted": 4, "failed": failed, "minor_faults": faults,
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
    # as run_bench returns a run that printed no result line
    broken = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "minor_faults": 900}
    summary = bench_pairs.summarize([(result(1.0), broken)], METRICS)
    assert summary["metrics"] == {}
    assert len(summary["flags"]) == 1


def test_minor_faults_are_summarized_in_a_row_that_claims_nothing():
    pairs = [(result(1.0, faults=25000 + i), result(1.0, faults=10 + i)) for i in range(10)]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["faults"]["wins"] == 10
    assert summary["faults"]["parent"] == pytest.approx((25002.25, 25004.5, 25006.75))
    assert summary["faults"]["ratio"] == pytest.approx(14.5 / 25004.5)
    assert "claim" not in summary["faults"]
    row = [line for line in bench_pairs.report(summary) if line.startswith("minor_faults")]
    assert len(row) == 1 and row[0].endswith("10/10  -")


def test_run_bench_counts_the_faults_of_its_run(tmp_path):
    # a stand-in bench/run.py that writes every page of 32 MiB
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json\nblock = b'x' * (32 << 20)\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {}}))\n")
    res = bench_pairs.run_bench(tmp_path, "any", 1, 1.0)
    assert res["correct"] and res["minor_faults"] >= (32 << 20) // resource.getpagesize()
    (tmp_path / "bench" / "run.py").write_text("raise SystemExit(2)\n")
    res = bench_pairs.run_bench(tmp_path, "any", 1, 1.0)
    assert not res["correct"] and res["minor_faults"] > 0
