"""Tests of the benchmark itself (not part of the repository's tier-1 run).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import cells, served  # noqa: E402
from perfbench.common import load_expected  # noqa: E402
from perfbench.metrics import (END_TO_END, END_TO_END_NAMES,  # noqa: E402
                               PER_LAYER, PER_LAYER_NAMES)
from perfbench.tracer import Tracer  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["paper_apps", "sync_spin",
                                      "served_mix"])
def test_tiny_workload_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0, done.stderr
    assert doc["attempted"] >= 1
    names = PER_LAYER_NAMES if trace == "1" else END_TO_END_NAMES
    assert list(doc["metrics"]) == list(names)
    for name, entry in doc["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
        if trace == "0":
            assert entry["value"] > 0, name
    if trace == "1":
        values = {name: entry["value"]
                  for name, entry in doc["metrics"].items()}
        assert abs(values["trace.accounted_frac"] - 1.0) <= 0.05


def test_digest_check_fails_on_tampered_digest():
    expected = dict(load_expected()["cells"])
    cell = cells.workload_cells("sync_spin", tiny=True)[0]
    key = cells.digest_key("sync_spin", cell, tiny=True)
    expected[key] = "0" * 64
    result = cells.measure("sync_spin", 1, 0.01, expected, tiny=True)
    assert result.failed == 1
    assert any(key in line for line in result.errors)


def test_served_check_fails_on_tampered_digest():
    expected = dict(load_expected()["served"])
    block = next(served.blocks(2))
    first = block[0]
    expected[first.job_key] = "0" * 64
    result = served.measure(2, 0.01, expected, tiny=True)
    # Every submission of that spec, and its direct re-run, disagree.
    submitted = sum(1 for sub in block if sub.job_key == first.job_key)
    assert result.failed == submitted + 1
    assert result.metrics["jobs_per_cpu_s"] > 0


def test_wrappers_leave_results_unchanged():
    expected = load_expected()["cells"]
    for workload in ("paper_apps", "sync_spin"):
        for cell in cells.workload_cells(workload, tiny=True):
            plain = cells.run_cell(cell)
            tracer = Tracer()
            traced = cells.run_cell(cell, tracer)
            assert traced.digest == plain.digest
            assert plain.digest == expected[
                cells.digest_key(workload, cell, tiny=True)]
            assert tracer.open_spans == 0
            assert tracer.calls("noc.send") == plain.machine.stats.messages


def test_tracer_self_times_partition_the_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        wrapped_leaf()
        wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    with tracer.span("root") as root:
        wrapped_middle()
        wrapped_leaf()
    own = sum(tracer.self_s(key) for key in ("root", "middle", "leaf"))
    assert own == pytest.approx(root.elapsed, rel=1e-9)
    assert tracer.calls("leaf") == 3
    assert tracer.self_s("middle") < tracer.total_s("middle")


def test_served_blocks_are_seeded_and_complete():
    first = [s.job_key for block in served.blocks(7) for s in block]
    again = [s.job_key for block in served.blocks(7) for s in block]
    other = [s.job_key for block in served.blocks(8) for s in block]
    assert first == again and first != other
    seen = set()
    expected = load_expected()["served"]
    for block in served.blocks(7):
        fresh = [s for s in block if not s.resubmit]
        assert len(fresh) == len(served.CONFIGS) * len(served.KINDS)
        assert len(block) - len(fresh) == served.HITS_PER_BLOCK
        for sub in block:
            assert sub.job_key in expected
            assert (sub.job_key in seen) == sub.resubmit
            seen.add(sub.job_key)


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(
        ["paper_apps", "sync_spin", "served_mix"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sync_spin",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
