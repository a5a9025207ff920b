"""Same-host A/B of two source trees on the repository benchmark.

Usage::

    git worktree add /tmp/parent HEAD^
    python3 benchmarks/perf_ab.py /tmp/parent .

Runs ``perfbench/run.py`` on the ``WORKLOAD`` workload for ``SECONDS``
seconds in each tree, alternating parent and change, for ``PAIRS``
pairs; the parent goes first in even pairs, the change in odd ones.
Each run's JSON result line is printed as it lands, tagged with its tree
and pair; the benchmark's own diagnostics (``FAILED <cell>: ...``) pass
through on standard error. Then, for every end-to-end metric, the two
medians, their spread (min..max) and the change/parent ratio.

Exit status 1 if any run, in either tree, reports ``correct: false`` or
``failed > 0`` (or dies without a result line), or if the change's median
``jobs_per_cpu_s`` is below ``(1 - bound)`` times the parent's, where
``bound`` is that metric's bound in the parent tree's ``BENCHMARK.json``.

Standard library only, so it runs on any Python the benchmark runs on,
and it imports nothing from either tree.
"""

import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

WORKLOAD = "sync_spin"
PAIRS = 3
SECONDS = 10
SEED = 1
#: The throughput metric the gate holds to its bound.
GATED = "jobs_per_cpu_s"

Run = Dict[str, Any]


def load_bound(tree: str) -> float:
    """The gated metric's regression bound from ``tree``'s BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for entry in spec["end_to_end"]:
        if entry["name"] == GATED:
            return float(entry["bound"])
    raise KeyError(f"{GATED} has no bound in {tree}/BENCHMARK.json")


def run_perfbench(tree: str) -> Run:
    """One benchmark run in ``tree``; its parsed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError):
        run = None
    if proc.returncode != 0 or not isinstance(run, dict):
        return {"correct": False, "failed": None,
                "error": f"exit status {proc.returncode}"}
    return run


def _value(run: Run, metric: str) -> float:
    return float(run["metrics"][metric]["value"])


def _broken(run: Run) -> bool:
    return run.get("correct") is not True or run.get("failed") != 0


def verdict(parent: List[Run], change: List[Run],
            bound: float) -> Tuple[bool, List[str]]:
    """Gate the change's runs against the parent's; (passed, report)."""
    failures = [f"FAIL {name} run {index}: correct={run.get('correct')} "
                f"failed={run.get('failed')} {run.get('error', '')}".rstrip()
                for name, runs in (("parent", parent), ("change", change))
                for index, run in enumerate(runs) if _broken(run)]
    if failures:
        return False, failures
    report: List[str] = []
    medians = {}
    for metric in parent[0]["metrics"]:
        old = [_value(run, metric) for run in parent]
        new = [_value(run, metric) for run in change]
        old_mid, new_mid = statistics.median(old), statistics.median(new)
        medians[metric] = old_mid, new_mid
        ratio = new_mid / old_mid if old_mid else float("nan")
        report.append(f"{metric}: parent {old_mid:.6g} "
                      f"[{min(old):.6g}..{max(old):.6g}]  change "
                      f"{new_mid:.6g} [{min(new):.6g}..{max(new):.6g}]  "
                      f"ratio {ratio:.3f}")
    old_mid, new_mid = medians[GATED]
    floor = (1.0 - bound) * old_mid
    if new_mid < floor:
        report.append(f"FAIL {GATED}: change median {new_mid:.6g} < "
                      f"(1 - {bound}) x parent median {old_mid:.6g} = "
                      f"{floor:.6g}")
        return False, report
    report.append(f"ok {GATED}: change median {new_mid:.6g} >= "
                  f"{floor:.6g} (bound {bound})")
    return True, report


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: perf_ab.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    parent_tree, change_tree = argv
    bound = load_bound(parent_tree)
    runs: Dict[str, List[Run]] = {"parent": [], "change": []}
    trees = [("parent", parent_tree), ("change", change_tree)]
    for pair in range(PAIRS):
        for name, tree in trees[::-1] if pair % 2 else trees:
            run = run_perfbench(tree)
            runs[name].append(run)
            print(json.dumps(dict(run, tree=name, pair=pair)), flush=True)
    passed, report = verdict(runs["parent"], runs["change"], bound)
    print("\n".join(report))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
