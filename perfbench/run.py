"""Benchmark entry point.

    python3 perfbench/run.py --workload paper_apps --seed 1 --seconds 32 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes a separate traced run and reports the per-layer metrics (span
aggregates are written to ``.perfbench/trace-<workload>-<seed>.json``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
each metric with its unit. Failures (digest mismatches, served results
that differ from the direct run, errors) are listed on standard error.

``--describe`` prints the workloads and metrics with what each
per-layer metric is expected to move. ``--regen-digests`` rewrites
``perfbench/expected_digests.json`` from the current simulator; only do
that for a change that is meant to alter simulated behaviour.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("paper_apps", "sync_spin", "served_mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="16-core short cells, one served block (for "
                             "the benchmark's own tests)")
    parser.add_argument("--describe", action="store_true",
                        help="print workloads and metrics, then exit")
    parser.add_argument("--regen-digests", action="store_true",
                        help="rewrite the committed expected digests")
    args = parser.parse_args(argv)
    if not (args.describe or args.regen_digests or args.workload):
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _program_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def _describe() -> None:
    from perfbench.metrics import END_TO_END, PER_LAYER
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        workloads = json.load(handle)["workloads"]
    print("workloads:")
    for workload in workloads:
        print(f"  {workload['name']}: {workload['why']}")
    print("end-to-end metrics (untraced, --trace 0):")
    for metric in END_TO_END:
        print(f"  {metric.name} [{metric.unit}, {metric.better} is better, "
              f"bound {metric.bound}]: {metric.about}")
    print("per-layer metrics (traced, --trace 1):")
    for metric in PER_LAYER:
        print(f"  {metric.name} [{metric.unit}]: {metric.about}")


def _regen() -> None:
    from perfbench import cells, served
    from perfbench.common import save_expected
    from repro.orchestrate.jobspec import JobSpec

    doc = {"cells": {}, "served": {}}
    for workload in ("paper_apps", "sync_spin"):
        for tiny in (False, True):
            for cell in cells.workload_cells(workload, tiny):
                key = cells.digest_key(workload, cell, tiny)
                doc["cells"][key] = cells.run_cell(cell).digest
                print(f"{key} {doc['cells'][key][:16]}", file=sys.stderr)
    for spec in served.spec_pool():
        digest, _elapsed = served.direct_run(spec)
        doc["served"][JobSpec.from_dict(spec).job_key()] = digest
    save_expected(doc)
    print(f"wrote {len(doc['cells'])} cell and {len(doc['served'])} served "
          f"digests", file=sys.stderr)


def _run(args) -> dict:
    from perfbench import cells, served
    from perfbench.common import (WORK_DIR, import_seconds, load_expected,
                                  peak_rss_mb)
    from perfbench.metrics import END_TO_END_NAMES, PER_LAYER_NAMES

    expected = load_expected()
    sim = args.workload != "served_mix"
    if not args.trace:
        if sim:
            result = cells.measure(args.workload, args.seed, args.seconds,
                                   expected["cells"], args.tiny)
            built = cells.setup_seconds(args.workload, args.tiny)
        else:
            result = served.measure(args.seed, args.seconds,
                                    expected["served"], args.tiny)
            built = served.setup_seconds()
        metrics = dict(result.metrics)
        metrics["setup_s"] = import_seconds(
            cells.MODULES if sim else served.MODULES) + built
        metrics["peak_rss_mb"] = peak_rss_mb()
        names = END_TO_END_NAMES
    else:
        os.makedirs(WORK_DIR, exist_ok=True)
        path = os.path.join(WORK_DIR,
                            f"trace-{args.workload}-{args.seed}.json")
        if sim:
            result = cells.measure_traced(args.workload, args.seed,
                                          expected["cells"], path, args.tiny)
        else:
            result = served.measure_traced(args.seed, args.seconds,
                                           expected["served"], path,
                                           args.tiny)
        metrics = dict(result.metrics)
        names = PER_LAYER_NAMES
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for line in result.errors[:50]:
        print(f"FAILED {line}", file=sys.stderr)
    return {"correct": result.failed == 0, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {name: metrics[name] for name in names}}


def main(argv=None) -> int:
    args = _parse(argv)
    if not _program_present():
        print("perfbench: no program source (src/repro) next to the "
              "benchmark; run it from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    if args.describe:
        _describe()
        return 0
    if args.regen_digests:
        _regen()
        return 0
    from perfbench.metrics import UNITS
    doc = _run(args)
    metrics = {}
    for name, value in doc["metrics"].items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
        metrics[name] = {"value": value, "unit": UNITS[name]}
    doc["metrics"] = metrics
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
