"""Golden boundary chains: exact checkpoint output of a served job.

Each cell runs one ``served_mix``-shaped job (16 cores; TTAS lock, SR
barrier or signal/wait; one seed) under a :class:`Checkpointer` with a
boundary every 2000 cycles, and records

* the chain of ``[boundary, fingerprint]`` pairs in save order,
* the final checkpoint's fingerprint, and
* a SHA-256 over the bytes of every blob the store wrote, in boundary
  order.

The committed ``golden_boundaries.json`` was generated before captures
became JSON-native and before each boundary was encoded once; an
encoding change that moves one fingerprint or one byte of a blob fails
here.

Regenerate (only for an intended behaviour change, justified in
CHANGES.md) with::

    PYTHONPATH=src python tests/test_golden_boundaries.py --regen
"""

import hashlib
import json
import os
import sys
import tempfile
from typing import Any, Dict, List, Tuple

import pytest

from repro.ckpt import Checkpointer, CheckpointStore
from repro.orchestrate import JobSpec

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_boundaries.json")

KINDS = {
    "lock": {"lock_name": "ttas", "iterations": 4},
    "barrier": {"barrier_name": "sr", "episodes": 4},
    "signal_wait": {"rounds": 4},
}
CONFIGS = ("Invalidation", "BackOff-10", "CB-All", "CB-One")
CORES = 16
SEED = 1
EVERY = 2000

CELLS: List[Tuple[str, str, str]] = [
    (f"{kind}/{config}", kind, config)
    for kind in KINDS for config in CONFIGS
]


def run_chain(kind: str, config: str, root: str) -> Dict[str, Any]:
    """Run one checkpointed job into a fresh store under ``root``."""
    spec = JobSpec(config, kind, KINDS[kind], {"num_cores": CORES},
                   seed=SEED)
    store = CheckpointStore(root)
    fingerprints: List[List[Any]] = []
    save = store.save

    def recording_save(ckpt):
        fingerprints.append([ckpt.boundary, ckpt.fingerprint])
        return save(ckpt)

    store.save = recording_save
    Checkpointer(spec, store, every=EVERY).run(resume=False)
    blobs = hashlib.sha256()
    for boundary in store.boundaries(spec.job_key()):
        with open(store._blob_path(spec.job_key(), boundary), "rb") as fh:
            blobs.update(fh.read())
    return {"chain": fingerprints[:-1], "final": fingerprints[-1][1],
            "blobs": blobs.hexdigest()}


def compute_all() -> Dict[str, Dict[str, Any]]:
    out = {}
    for key, kind, config in CELLS:
        with tempfile.TemporaryDirectory() as root:
            out[key] = run_chain(kind, config, root)
    return out


def _golden() -> Dict[str, Dict[str, Any]]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("key,kind,config", CELLS,
                         ids=[cell[0] for cell in CELLS])
def test_boundary_chain_matches_golden(key, kind, config, tmp_path):
    got = run_chain(kind, config, str(tmp_path))
    want = _golden()[key]
    assert got["chain"] == want["chain"]
    assert got["final"] == want["final"]
    assert got["blobs"] == want["blobs"]


def test_golden_covers_grid():
    golden = _golden()
    assert set(golden) == {cell[0] for cell in CELLS}
    # Every cell crossed at least two boundaries before its final one.
    assert all(len(entry["chain"]) >= 2 for entry in golden.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_golden_boundaries.py --regen")
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(compute_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")
