"""Invariant checkers: clean machines pass, corrupted machines fail."""

import pytest

from repro.config import config_for
from repro.core.machine import Machine
from repro.protocols import ops
from repro.protocols.mesi.states import MESIState
from repro.sync import make_lock, style_for
from repro.protocols.ops import Compute
from repro.validation import (InvariantViolation, audit_machine,
                              check_callback_directory, check_mesi_swmr,
                              check_vips_l1)

from tests.protocol_utils import issue, issue_pending

ADDR = 0x4000


def run_contended(label, threads=4):
    cfg = config_for(label, num_cores=threads)
    machine = Machine(cfg)
    lock = make_lock("ttas", style_for(cfg))
    lock.setup(machine.layout, threads)
    for addr, value in lock.initial_values().items():
        machine.store.write(addr, value)

    def body(ctx):
        for _ in range(4):
            yield from lock.acquire(ctx)
            yield Compute(10)
            yield from lock.release(ctx)
            yield Compute(1 + ctx.rng.randrange(30))

    machine.spawn([body] * threads)
    machine.run()
    return machine


class TestCleanMachinesPass:
    @pytest.mark.parametrize("label,expected", [
        ("Invalidation", ["mesi_swmr"]),
        ("BackOff-10", ["vips_l1"]),
        ("CB-One", ["callback_directory", "vips_l1"]),
    ])
    def test_audit_after_contended_run(self, label, expected):
        machine = run_contended(label)
        assert audit_machine(machine) == expected

    def test_audit_mid_simulation_checkpoints(self):
        """Audits hold at every quiescent point, not just at the end."""
        cfg = config_for("Invalidation", num_cores=4)
        machine = Machine(cfg)
        for step in range(8):
            core = step % 4
            issue(machine, core,
                  ops.Store(ADDR + 64 * (step % 3), step)
                  if step % 2 else ops.Load(ADDR + 64 * (step % 3)))
            check_mesi_swmr(machine.protocol)


class TestCorruptionDetected:
    def test_double_owner_detected(self):
        machine = Machine(config_for("Invalidation", num_cores=4))
        issue(machine, 0, ops.Store(ADDR, 1))
        # Corrupt: force a second M copy behind the protocol's back.
        line = machine.protocol.addr_map.line_of(ADDR)
        from repro.protocols.mesi.states import L1Line
        machine.protocol.l1[1].insert(line, L1Line(MESIState.MODIFIED, {}))
        with pytest.raises(InvariantViolation, match="multiple cores"):
            check_mesi_swmr(machine.protocol)

    def test_owner_plus_sharer_detected(self):
        machine = Machine(config_for("Invalidation", num_cores=4))
        issue(machine, 0, ops.Store(ADDR, 1))
        line = machine.protocol.addr_map.line_of(ADDR)
        from repro.protocols.mesi.states import L1Line
        machine.protocol.l1[1].insert(line, L1Line(MESIState.SHARED, {}))
        with pytest.raises(InvariantViolation):
            check_mesi_swmr(machine.protocol)

    def test_dirty_word_outside_line_detected(self):
        machine = Machine(config_for("BackOff-10", num_cores=4))
        issue(machine, 0, ops.Store(ADDR, 1))
        line = machine.protocol.addr_map.line_of(ADDR)
        payload = machine.protocol.l1[0].lookup(line).payload
        payload.dirty_words.add(0xdead00)
        with pytest.raises(InvariantViolation, match="outside the line"):
            check_vips_l1(machine.protocol)

    def test_cb_bit_waiter_mismatch_detected(self):
        machine = Machine(config_for("CB-One", num_cores=4))
        issue(machine, 0, ops.LoadCB(ADDR))
        word = machine.protocol.addr_map.word_base(ADDR)
        entry = machine.protocol.cb_dirs[
            machine.protocol.bank_of(ADDR)].lookup(word)
        entry.cb = 0b1010  # bits without waiters
        with pytest.raises(InvariantViolation, match="disagree"):
            check_callback_directory(machine.protocol)

    def _parked_entry(self):
        """A CB entry with core 1 genuinely parked (second LoadCB blocks
        once the first consumed the F/E bit)."""
        machine = Machine(config_for("CB-One", num_cores=4))
        issue(machine, 1, ops.LoadCB(ADDR))   # consumes core 1's F/E bit
        issue_pending(machine, 1, ops.LoadCB(ADDR))
        word = machine.protocol.addr_map.word_base(ADDR)
        entry = machine.protocol.cb_dirs[
            machine.protocol.bank_of(ADDR)].lookup(word)
        assert 1 in entry.waiters
        return machine, entry

    def test_arrival_fifo_desync_detected(self):
        machine, entry = self._parked_entry()
        entry.arrival.append(2)  # phantom arrival with no waiter record
        with pytest.raises(InvariantViolation, match="arrival FIFO"):
            check_callback_directory(machine.protocol)

    def test_invalid_waiter_core_detected(self):
        machine, entry = self._parked_entry()
        entry.waiters[99] = entry.waiters.pop(1)  # out-of-range core id
        with pytest.raises(InvariantViolation, match="invalid waiter core"):
            check_callback_directory(machine.protocol)

    def test_over_capacity_detected(self):
        machine, _entry = self._parked_entry()
        machine.protocol.config.cb_entries_per_bank = 0
        with pytest.raises(InvariantViolation, match="> capacity"):
            check_callback_directory(machine.protocol)

    def test_missing_sharer_detected(self):
        machine = Machine(config_for("Invalidation", num_cores=4))
        issue(machine, 0, ops.Store(ADDR, 1))
        issue(machine, 1, ops.Load(ADDR))
        line = machine.protocol.addr_map.line_of(ADDR)
        # Corrupt: the directory forgets a live S copy entirely.
        dir_entry = machine.protocol._dir.get(line)
        dir_entry.owner = None
        dir_entry.sharers.clear()
        with pytest.raises(InvariantViolation, match="missing from"):
            check_mesi_swmr(machine.protocol)

    def test_shared_line_classified_private_detected(self):
        machine = Machine(config_for("BackOff-10", num_cores=4))
        issue(machine, 0, ops.Load(ADDR))
        line = machine.protocol.addr_map.line_of(ADDR)
        payload = machine.protocol.l1[0].lookup(line).payload
        payload.shared = True  # cached as shared, classifier says private
        with pytest.raises(InvariantViolation, match="classified private"):
            check_vips_l1(machine.protocol)

    def test_stale_fence_index_detected(self):
        machine = Machine(config_for("BackOff-10", num_cores=4))
        issue(machine, 1, ops.Load(ADDR))  # page shared from here on
        issue(machine, 0, ops.Store(ADDR, 1))
        check_vips_l1(machine.protocol)
        line = machine.protocol.addr_map.line_of(ADDR)
        # Corrupt: the dirty word is gone but the index still lists it.
        machine.protocol.l1[0].lookup(line).payload.dirty_words.clear()
        with pytest.raises(InvariantViolation, match="fence index"):
            check_vips_l1(machine.protocol)
