"""Shared pieces: expected digests, statistics, set-up timing, memory."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, NamedTuple, Sequence

from repro.ioutil import sha256_of
from repro.sim.stats import Stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Committed digests of every cell's Stats and every served spec's result,
#: generated with ``run.py --regen-digests``.
EXPECTED_PATH = os.path.join(HERE, "expected_digests.json")
#: Scratch space inside the checkout: served queue roots, trace dumps.
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 5

#: Modelled (simulated-time) counts: per-layer metric -> Stats field. A
#: change that only speeds the simulator up leaves them identical.
MODELLED = {
    "sim.cycles": "cycles",
    "protocols.llc_sync_accesses": "llc_sync_accesses",
    "protocols.invalidations_sent": "invalidations_sent",
    "protocols.cb_wakeups": "cb_wakeups",
    "noc.messages": "messages",
    "noc.flit_hops": "flit_hops",
    "mem.l1_misses": "l1_misses",
    "mem.llc_accesses": "llc_accesses",
}


class Result(NamedTuple):
    """One workload run: operations attempted and failed, the metrics,
    and a line per failure."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    errors: List[str]


def stats_digest(stats: Stats) -> str:
    """Canonical digest of a run's full ``Stats`` plus its cycle count."""
    return sha256_of({"cycles": stats.cycles, "stats": stats.ckpt_state()})


def result_digest(result: Dict[str, Any]) -> str:
    """Digest of a record's ``result`` field (the served parity object)."""
    return sha256_of(result)


def load_expected() -> Dict[str, Dict[str, str]]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def save_expected(doc: Dict[str, Dict[str, str]]) -> None:
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def cpu_seconds() -> float:
    """CPU seconds used by this process, all threads.

    Every time metric of an untraced run is CPU time rather than wall
    time: on a shared host the process is descheduled (and, in a guest,
    its vCPU preempted) for varying shares of a run, which wall time
    counts and CPU time does not. Waits on the disk (``fsync``) and on
    sockets are not counted either; ``serve.fsyncs`` counts the former.
    """
    return time.process_time()


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def import_seconds(modules: Sequence[str]) -> float:
    """CPU seconds a fresh interpreter spends importing ``modules``: the
    import half of set-up, median of :data:`SETUP_REPEATS` children."""
    code = ("import time\nt = time.process_time()\n"
            + "".join(f"import {name}\n" for name in modules)
            + "print(time.process_time() - t)\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    samples: List[float] = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return median(samples)


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, name))
                     for name in files)
    return total
