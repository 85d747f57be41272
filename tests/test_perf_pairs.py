"""The summary of ``tools/perf_pairs.py`` on canned perfbench result lines."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import perf_pairs  # noqa: E402

METRICS = [
    {"name": "throughput_img_s", "unit": "img/s", "better": "higher", "bound": 0.25},
    {"name": "cpu_ms_per_img", "unit": "ms", "better": "lower", "bound": 0.25},
]


def run_output(throughput, cpu_ms, correct=True, digest="848a81932110024a"):
    """What ``perfbench/run.py`` prints, cut to the lines the summary reads."""
    result = {
        "correct": correct, "attempted": 100, "failed": 0,
        "metrics": {
            "throughput_img_s": {"value": throughput, "unit": "img/s"},
            "cpu_ms_per_img": {"value": cpu_ms, "unit": "ms"},
        },
    }
    return f"workload eval-faults seed 1\npredictions digest (first 64 images): {digest}\n{json.dumps(result)}\n"


def rows_by_name(parent, change):
    parsed = [[perf_pairs.parse_run(out) for out in side] for side in (parent, change)]
    rows = perf_pairs.summarize(*parsed, METRICS)
    return {row["name"]: row for row in rows}


def test_parse_run_reads_the_result_and_the_digest():
    result = perf_pairs.parse_run(run_output(900.0, 1.1))
    assert result["correct"] and result["metrics"]["throughput_img_s"]["value"] == 900.0
    assert result["digest"] == "848a81932110024a"
    with pytest.raises(ValueError):
        perf_pairs.parse_run("Traceback (most recent call last):\n")


def test_a_clear_gain_is_claimed_in_each_direction():
    parent = [run_output(880.0 + i, 1.14 - 0.001 * i) for i in range(10)]
    change = [run_output(970.0 + i, 1.03 - 0.001 * i) for i in range(10)]
    rows = rows_by_name(parent, change)
    throughput = rows["throughput_img_s"]
    assert throughput["wins"] == 10 and throughput["pairs"] == 10 and throughput["claim"]
    assert throughput["parent"] == (884.5, 882.25, 886.75)
    assert throughput["change"][0] == 974.5
    assert rows["cpu_ms_per_img"]["wins"] == 10 and rows["cpu_ms_per_img"]["claim"]


def test_fewer_than_ten_pairs_claim_nothing():
    parent = [run_output(880.0, 1.1) for _ in range(9)]
    change = [run_output(970.0, 1.0) for _ in range(9)]
    row = rows_by_name(parent, change)["throughput_img_s"]
    assert row["wins"] == 9 and not row["claim"]


def test_eight_wins_of_ten_claim_nothing():
    parent = [run_output(900.0, 1.0) for _ in range(10)]
    change = [run_output(950.0 if i < 8 else 850.0, 1.0) for i in range(10)]
    rows = rows_by_name(parent, change)
    assert rows["throughput_img_s"]["wins"] == 8 and not rows["throughput_img_s"]["claim"]
    assert rows["cpu_ms_per_img"]["wins"] == 0  # ties count for neither side


def test_a_gain_inside_the_parent_spread_claims_nothing():
    parent = [run_output(v, 1.0) for v in (800.0, 1000.0) * 5]
    change = [run_output(v + 10.0, 1.0) for v in (800.0, 1000.0) * 5]
    row = rows_by_name(parent, change)["throughput_img_s"]
    assert row["wins"] == 10 and not row["claim"]  # 10 img/s against an IQR of 200


def test_a_regression_beyond_the_bound_is_flagged():
    parent = [run_output(1000.0, 1.0) for _ in range(4)]
    change = [run_output(700.0, 1.2) for _ in range(4)]
    rows = rows_by_name(parent, change)
    assert not rows["throughput_img_s"]["within_bound"]  # 30% worse against a 25% bound
    assert rows["cpu_ms_per_img"]["within_bound"]  # 20% worse


def test_pairs_with_an_incorrect_run_are_left_out():
    parent = [run_output(900.0, 1.0), run_output(900.0, 1.0, correct=False), run_output(900.0, 1.0)]
    change = [run_output(950.0, 1.0), run_output(950.0, 1.0), run_output(950.0, 1.0)]
    assert rows_by_name(parent, change)["throughput_img_s"]["pairs"] == 2
    assert "throughput_img_s" in perf_pairs.format_rows(rows_by_name(parent, change).values())
