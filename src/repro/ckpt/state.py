"""State capture and fingerprints: the snapshottability contract.

Simulated threads are Python generators — continuations that cannot be
serialized. What *can* be captured, canonically and completely, is every
observable consequence of how far the simulation has run. Each mutable
component therefore implements ``ckpt_state()`` returning
JSON-native data (object-id-free; dicts keyed by ``str``, sequences as
lists), and :meth:`~repro.core.machine.Machine.ckpt_state` aggregates
them:

====================  ====================================================
component             capture
====================  ====================================================
Engine                clock + live event queue as (time, callback name)
WordStore             word values and version counters
Stats                 every counter, message-kind count, episode sample
Network               link occupancy still relevant now-or-later
CoherenceProtocol     bank ports, LLC residency, page classifier, plus
                      per-protocol state: L1 arrays (MESI or VIPS
                      payloads), directory entries, spin watches, MSHR
                      locks, callback-directory F/E + CB + A/O bits and
                      parked waiters, RNG stream digests
Core                  retirement counts, lifecycle cycles, spin flag
====================  ====================================================

Two machines with equal captures behave identically from that point on;
the capture's SHA-256 is the checkpoint **fingerprint**. Because every
key is already a string (word, line, page and core numbers included), a
capture equals itself read back from disk, and one ``json.dumps`` with
sorted keys (:func:`encode_state`) is its canonical form: the same text
:func:`~repro.ioutil.canonical_json` produces with its extra round-trip.
A checkpoint boundary encodes its capture once and derives the
fingerprint, the blob checksum and the blob text from that encoding. A
second,
weaker digest — the **functional fingerprint**, SHA-256 over the word
store's non-zero values only (the same formula the fault campaigns use,
:func:`repro.resilience.campaign.functional_fingerprint`) — survives
attachments that legitimately perturb the full capture (telemetry wraps
network handlers, changing queued-callback names).

Captures deliberately exclude daemon events and raw event sequence
numbers, making the fingerprint invariant under observers (telemetry
ticks, watchdog checks, audit timers) — the repo-wide "observers never
change results" contract, now mechanically checkable.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Dict

from repro.ioutil import sha256_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine

__all__ = ["capture_state", "encode_state", "state_fingerprint",
           "functional_fingerprint", "diff_captures"]


def capture_state(machine: "Machine") -> Dict[str, Any]:
    """The machine's full canonical capture (see module docstring)."""
    return machine.ckpt_state()


def encode_state(state: Any) -> str:
    """A capture's canonical JSON text, in one pass (captures are
    JSON-native, so sorting keys here already sorts them as a re-read
    capture would)."""
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def state_fingerprint(state: Any) -> str:
    """SHA-256 hex over a capture's canonical JSON form."""
    return sha256_text(encode_state(state))


def functional_fingerprint(machine: "Machine") -> str:
    """SHA-256 over the store's non-zero word values — byte-compatible
    with the fault campaigns' fingerprint, so a restored run can be
    checked against a campaign baseline directly."""
    snapshot = machine.store.snapshot()
    blob = json.dumps(sorted(snapshot.items()),
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def diff_captures(expected: Dict[str, Any],
                  actual: Dict[str, Any]) -> Dict[str, str]:
    """Which top-level components diverge between two captures.

    Maps component name to ``"expected-digest != actual-digest"`` (12
    hex chars each) for every differing entry — what a
    :class:`~repro.ckpt.checkpoint.CheckpointMismatchError` reports so
    a divergence names the subsystem responsible, not just "mismatch".
    """
    out: Dict[str, str] = {}
    for key in sorted(set(expected) | set(actual)):
        # Captures are JSON-native, so a live capture and one read back
        # from a blob encode alike; digests keep the report short.
        want = state_fingerprint(expected.get(key))
        got = state_fingerprint(actual.get(key))
        if want != got:
            out[key] = f"{want[:12]} != {got[:12]}"
    return out
