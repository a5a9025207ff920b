"""Runtime coherence/protocol invariant checkers.

These auditors inspect a live machine and verify the structural
invariants each protocol relies on. They are used by the test suite
after (and, for targeted tests, during) simulations, and are cheap
enough to run in debug sessions via :func:`audit_machine`.

Checked invariants:

* **MESI SWMR** (single-writer/multiple-reader): no line is M/E in two
  L1s; a line that is M/E anywhere has no S copies elsewhere; the
  directory's owner/sharer records agree with (or conservatively
  over-approximate) the actual L1 contents.
* **VIPS dirty-shared containment**: every dirty word recorded in an L1
  line belongs to that line; private lines are never flushed by fences
  (checked statistically via counters); fence indexes match an L1 scan.
* **Callback directory**: per-entry CB bits mirror the waiter table;
  waiter cores are valid; occupancy never exceeds capacity; in One mode
  the F/E vector left by a write is uniform.
"""

from __future__ import annotations

from typing import List

from repro.core.machine import Machine
from repro.protocols.callback.protocol import CallbackProtocol
from repro.protocols.mesi.protocol import MESIProtocol
from repro.protocols.mesi.states import MESIState
from repro.protocols.vips.protocol import VIPSProtocol
from repro.protocols.vips.table import drops_on_self_invl, flushes_on_fence


class InvariantViolation(AssertionError):
    """A protocol invariant does not hold."""


def check_mesi_swmr(protocol: MESIProtocol) -> None:
    """Single-writer/multiple-reader over all L1s + directory agreement."""
    holders: dict = {}
    for core, l1 in enumerate(protocol.l1):
        for entry in l1:
            holders.setdefault(entry.line, []).append(
                (core, entry.payload.state))
    for line, copies in holders.items():
        owners = [c for c, s in copies
                  if s in (MESIState.MODIFIED, MESIState.EXCLUSIVE)]
        sharers = [c for c, s in copies if s is MESIState.SHARED]
        if len(owners) > 1:
            raise InvariantViolation(
                f"line {line:#x} owned (M/E) by multiple cores: {owners}")
        if owners and sharers:
            raise InvariantViolation(
                f"line {line:#x} owned by {owners[0]} but shared by "
                f"{sharers}")
        dir_entry = protocol._dir.get(line)
        if owners:
            if dir_entry is None or dir_entry.owner != owners[0]:
                raise InvariantViolation(
                    f"line {line:#x}: L1 owner {owners[0]} unknown to the "
                    f"directory ({dir_entry and dir_entry.owner})")
        for sharer in sharers:
            # The directory may record stale sharers (silent S evictions)
            # but must never *miss* a real one.
            if dir_entry is None or (sharer not in dir_entry.sharers
                                     and dir_entry.owner != sharer):
                raise InvariantViolation(
                    f"line {line:#x}: sharer {sharer} missing from the "
                    f"directory")


def check_vips_l1(protocol: VIPSProtocol) -> None:
    """Dirty-word containment, classification consistency, fence indexes."""
    line_bytes = protocol.config.line_bytes
    for core, l1 in enumerate(protocol.l1):
        for entry in l1:
            base = entry.line * line_bytes
            for word in entry.payload.dirty_words:
                if not (base <= word < base + line_bytes):
                    raise InvariantViolation(
                        f"core {core} line {entry.line:#x}: dirty word "
                        f"{word:#x} outside the line")
            if entry.payload.shared and not protocol.classifier.is_shared(
                    base):
                raise InvariantViolation(
                    f"core {core} line {entry.line:#x} cached as shared "
                    f"but classified private")
        shared = {e.line for e in l1 if drops_on_self_invl(e.payload.shared)}
        dirty = {e.line for e in l1
                 if flushes_on_fence(e.payload.shared, e.payload.dirty_words)}
        if (protocol._shared_lines[core] != shared
                or protocol._dirty_shared[core] != dirty):
            raise InvariantViolation(
                f"core {core}: fence index differs from a scan of its L1")


def check_callback_directory(protocol: CallbackProtocol) -> None:
    """CB-bit/waiter agreement and capacity bounds, every bank."""
    capacity = protocol.config.cb_entries_per_bank
    num_cores = protocol.config.num_cores
    for bank, directory in enumerate(protocol.cb_dirs):
        if directory.occupancy() > capacity:
            raise InvariantViolation(
                f"bank {bank}: {directory.occupancy()} entries > capacity "
                f"{capacity}")
        for word in directory.resident_words():
            entry = directory.lookup(word)
            mask = 0
            for core in entry.waiters:
                if not (0 <= core < num_cores):
                    raise InvariantViolation(
                        f"bank {bank} word {word:#x}: invalid waiter core "
                        f"{core}")
                mask |= 1 << core
            if mask != entry.cb:
                raise InvariantViolation(
                    f"bank {bank} word {word:#x}: CB bits {entry.cb:#x} "
                    f"disagree with waiters {mask:#x}")
            if sorted(entry.arrival) != sorted(entry.waiters):
                raise InvariantViolation(
                    f"bank {bank} word {word:#x}: arrival FIFO out of sync")


def audit_machine(machine: Machine) -> List[str]:
    """Run every checker applicable to the machine's protocol.

    Returns the list of checker names that ran; raises
    :class:`InvariantViolation` on the first failure.
    """
    ran: List[str] = []
    protocol = machine.protocol
    if isinstance(protocol, MESIProtocol):
        check_mesi_swmr(protocol)
        ran.append("mesi_swmr")
    if isinstance(protocol, CallbackProtocol):
        check_callback_directory(protocol)
        ran.append("callback_directory")
    if isinstance(protocol, VIPSProtocol):
        check_vips_l1(protocol)
        ran.append("vips_l1")
    return ran
