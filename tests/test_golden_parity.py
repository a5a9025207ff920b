"""Golden parity: exact simulated behaviour over a small grid.

Each cell runs one 16-core simulation and digests its cycle count, its
full ``Stats`` and the machine's final checkpoint capture (L1 arrays,
link occupancy, directory state). The committed digests in
``golden_parity.json`` were generated before the NoC hop tables and the
VIPS fence index existed; a speed-up that shifts one message, one
fill or one flush in any cell fails here.

The grid covers what the benchmark's cells do not: the torus topology,
``model_link_contention`` and an L1 clean-line drop fault plan.

Regenerate (only for an intended behaviour change, justified in
CHANGES.md) with::

    PYTHONPATH=src python tests/test_golden_parity.py --regen
"""

import json
import os
import sys
from typing import Dict, List, Tuple

import pytest

from repro.config import config_for
from repro.core.machine import Machine
from repro.ioutil import sha256_of
from repro.orchestrate.registry import build_workload
from repro.resilience import (Fault, FaultKind, FaultPlan, Resilience,
                              ResilienceConfig)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_parity.json")

WORKLOADS = {
    "barnes": ("app", {"name": "barnes", "scale": 0.1,
                       "barrier_name": "treesr", "lock_name": "clh"}),
    "ttas": ("lock", {"lock_name": "ttas", "iterations": 4}),
}
CONFIGS = ("Invalidation", "BackOff-10", "CB-One")
TOPOLOGIES = ("mesh", "torus")
CORES = 16
#: The fault cell: clean-line drops every 2000 cycles on a CB-One barnes.
FAULT_CELL = "barnes/CB-One/mesh/drops"


def _cells() -> List[Tuple[str, str, str, str, bool]]:
    return [(f"{name}/{config}/{topology}/{'link' if link else 'free'}",
             name, config, topology, link)
            for name in WORKLOADS for config in CONFIGS
            for topology in TOPOLOGIES for link in (False, True)]


CELLS = _cells()


def _drop_plan() -> FaultPlan:
    faults = [Fault(kind=FaultKind.L1_DROP, cycle=cycle, selector=cycle // 7)
              for cycle in range(2_000, 200_000, 2_000)]
    spec, params = WORKLOADS["barnes"]
    return FaultPlan(config_label="CB-One", workload=spec,
                     workload_params=params, faults=faults)


def run_digest(name: str, config: str, topology: str, link: bool,
               drops: bool = False) -> str:
    """Run one cell; digest cycles, Stats and the final machine state."""
    cfg = config_for(config, num_cores=CORES, topology=topology,
                     model_link_contention=link)
    resilience = (Resilience(ResilienceConfig(plan=_drop_plan()))
                  if drops else None)
    machine = Machine(cfg, resilience=resilience)
    spec, params = WORKLOADS[name]
    build_workload(spec, params).install(machine)
    stats = machine.run()
    if drops:
        assert stats.l1_fault_drops > 0, "fault cell dropped no line"
    return sha256_of({"cycles": stats.cycles, "stats": stats.ckpt_state(),
                      "state": machine.ckpt_state()})


def compute_all() -> Dict[str, str]:
    digests = {key: run_digest(*cell) for key, *cell in CELLS}
    digests[FAULT_CELL] = run_digest("barnes", "CB-One", "mesh", False,
                                     drops=True)
    return digests


def _golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("key,name,config,topology,link", CELLS,
                         ids=[cell[0] for cell in CELLS])
def test_cell_matches_golden(key, name, config, topology, link):
    assert run_digest(name, config, topology, link) == _golden()[key]


def test_fault_cell_matches_golden():
    digest = run_digest("barnes", "CB-One", "mesh", False, drops=True)
    assert digest == _golden()[FAULT_CELL]


def test_golden_covers_grid():
    assert set(_golden()) == {cell[0] for cell in CELLS} | {FAULT_CELL}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_golden_parity.py --regen")
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(compute_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")
