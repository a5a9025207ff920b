"""The same-host A/B gate's verdict, on synthetic benchmark run lines."""

import json
import os

import pytest

from benchmarks import perf_ab

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
BOUND = perf_ab.load_bound(ROOT)


def run_line(jobs_per_cpu_s, correct=True, failed=0):
    """A result line shaped like ``perfbench/run.py``'s last line."""
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {"jobs_per_cpu_s": {"value": jobs_per_cpu_s,
                                           "unit": "1/s"},
                        "sim_cpu_s": {"value": 1.0, "unit": "s"}}}


def runs(*values):
    return [run_line(value) for value in values]


def test_bound_is_read_from_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    (entry,) = [e for e in spec["end_to_end"]
                if e["name"] == "jobs_per_cpu_s"]
    assert BOUND == entry["bound"] > 0


def test_change_inside_the_bound_passes():
    slower = 10.0 * (1 - BOUND) + 0.01
    passed, report = perf_ab.verdict(runs(10, 10, 10),
                                     runs(slower, 9, slower), BOUND)
    assert passed, report
    assert any(line.startswith("jobs_per_cpu_s: parent 10 ")
               for line in report)


def test_regression_past_the_bound_fails_despite_one_fast_run():
    slower = 10.0 * (1 - BOUND) - 0.01
    passed, report = perf_ab.verdict(runs(10, 10, 10),
                                     runs(slower, slower, 20), BOUND)
    assert not passed
    assert report[-1].startswith("FAIL jobs_per_cpu_s")


@pytest.mark.parametrize("broken", [run_line(20, correct=False),
                                    run_line(20, failed=1),
                                    {"correct": False, "failed": None,
                                     "error": "exit status 1"}])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_wrong_results_fail_even_when_faster(broken, side):
    parent, change = runs(10, 10, 10), runs(20, 20, 20)
    (parent if side == "parent" else change)[1] = broken
    passed, report = perf_ab.verdict(parent, change, BOUND)
    assert not passed
    assert report == [line for line in report if line.startswith("FAIL")]
    assert f"FAIL {side} run 1" in report[0]
