"""Golden grid: exact simulated behaviour over the paper's configs.

Each cell runs one 16-core simulation and records its cycle count, the
engine's executed-event count and a digest of both plus the full
``Stats`` and the machine's final checkpoint capture. Three families:

* ``bench/*`` — five fixed microbenchmark cases (TTAS ``iterations=5``
  under CB-One and Invalidation, SR ``episodes=4``, signal/wait
  ``rounds=6``, task queue ``tasks=24``) whose cycles and events have
  been pinned since the engine's first throughput baseline;
* ``sync/*`` — the seven configs x the Fig1/Fig20 constructs (TTAS and
  CLH locks, SR and TreeSR barriers, signal/wait; 8 episodes each);
* ``app/*`` — the seven configs x the 19 applications (scale 0.1, CLH
  locks, TreeSR barriers), as in Fig21.

The tier-1 suite checks the bench and sync cells plus the seven configs
over four cheap applications (``TIER1_APPS``); set ``GOLDEN_GRID=full``
to check every cell::

    GOLDEN_GRID=full PYTHONPATH=src python -m pytest tests/test_golden_grid.py

Regenerate (only for an intended behaviour change, justified in
CHANGES.md) with::

    PYTHONPATH=src python tests/test_golden_grid.py --regen
"""

import json
import os
import sys
from typing import Any, Dict, List, Tuple

import pytest

from repro.config import PAPER_CONFIGS, config_for
from repro.core.machine import Machine
from repro.ioutil import sha256_of
from repro.orchestrate.registry import build_workload
from repro.workloads.suite import APP_NAMES

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_grid.json")

CORES = 16

#: name -> (workload spec, params, config): copied verbatim.
BENCH = {
    "lock_ttas_cb": ("lock", {"lock_name": "ttas", "iterations": 5},
                     "CB-One"),
    "lock_ttas_inv": ("lock", {"lock_name": "ttas", "iterations": 5},
                      "Invalidation"),
    "barrier_sr_cb": ("barrier", {"barrier_name": "sr", "episodes": 4},
                      "CB-One"),
    "signal_wait_cb": ("signal_wait", {"rounds": 6}, "CB-One"),
    "task_queue_cb": ("task_queue", {"tasks": 24}, "CB-One"),
}
#: (cycles, events) of the bench cells, as first recorded.
BENCH_PINS = {
    "lock_ttas_cb": (9088, 1339),
    "lock_ttas_inv": (37369, 6469),
    "barrier_sr_cb": (11507, 1802),
    "signal_wait_cb": (7775, 1382),
    "task_queue_cb": (6308, 1107),
}
CONSTRUCTS = {
    "ttas": ("lock", {"lock_name": "ttas", "iterations": 8}),
    "clh": ("lock", {"lock_name": "clh", "iterations": 8}),
    "sr": ("barrier", {"barrier_name": "sr", "episodes": 8}),
    "treesr": ("barrier", {"barrier_name": "treesr", "episodes": 8}),
    "signal_wait": ("signal_wait", {"rounds": 8}),
}
APP_SCALE = 0.1
#: The cheapest applications at 16 cores, scale 0.1 (about 3 s of CPU
#: over the seven configs together).
TIER1_APPS = ("fluidanimate", "fmm", "lu", "lu-nc")

Cell = Tuple[str, str, Dict[str, Any], str]


def _cells() -> List[Cell]:
    cells: List[Cell] = [(f"bench/{name}", spec, params, config)
                         for name, (spec, params, config) in BENCH.items()]
    cells += [(f"sync/{name}/{config}", spec, params, config)
              for name, (spec, params) in CONSTRUCTS.items()
              for config in PAPER_CONFIGS]
    cells += [(f"app/{app}/{config}", "app",
               {"name": app, "scale": APP_SCALE, "lock_name": "clh",
                "barrier_name": "treesr"}, config)
              for app in APP_NAMES for config in PAPER_CONFIGS]
    return cells


CELLS = _cells()
TIER1_CELLS = [cell for cell in CELLS if not cell[0].startswith("app/")
               or cell[2]["name"] in TIER1_APPS]
CHECKED = CELLS if os.environ.get("GOLDEN_GRID") == "full" else TIER1_CELLS


def run_cell(spec: str, params: Dict[str, Any],
             config: str) -> Dict[str, Any]:
    """Run one cell; return its cycles, events and behaviour digest."""
    machine = Machine(config_for(config, num_cores=CORES, seed=1))
    build_workload(spec, params).install(machine)
    stats = machine.run()
    events = machine.events_executed
    return {"cycles": stats.cycles, "events": events,
            "digest": sha256_of({"cycles": stats.cycles, "events": events,
                                 "stats": stats.ckpt_state(),
                                 "state": machine.ckpt_state()})}


def compute_all() -> Dict[str, Dict[str, Any]]:
    return {key: run_cell(spec, params, config)
            for key, spec, params, config in CELLS}


def _golden() -> Dict[str, Dict[str, Any]]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("key,spec,params,config", CHECKED,
                         ids=[cell[0] for cell in CHECKED])
def test_cell_matches_golden(key, spec, params, config):
    assert run_cell(spec, params, config) == _golden()[key]


def test_golden_covers_grid():
    assert set(_golden()) == {cell[0] for cell in CELLS}


def test_bench_cells_keep_their_pinned_cycles_and_events():
    golden = _golden()
    assert {name: (golden[f"bench/{name}"]["cycles"],
                   golden[f"bench/{name}"]["events"])
            for name in BENCH} == BENCH_PINS


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_golden_grid.py --regen")
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(compute_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")
