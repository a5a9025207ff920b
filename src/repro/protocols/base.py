"""Coherence protocol base: dispatch, LLC bank timing, shared plumbing.

A protocol object owns the whole memory system below the cores: L1 models,
LLC banks, (for MESI) the directory, (for callback) the callback
directory. Cores call :meth:`CoherenceProtocol.issue` with an op and get a
:class:`~repro.sim.future.Future` resolved when the op completes.

LLC banks are single-ported: each bank tracks ``busy_until`` and a request
arriving while the bank is busy waits until the port frees. This
serialization is what turns LLC-spinning (BackOff-0) into the hot-bank
behaviour the paper describes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.classify.pagetable import PageClassifier
from repro.config import SystemConfig
from repro.mem.layout import AddressMap
from repro.mem.mainmem import MainMemory
from repro.mem.store import WordStore
from repro.noc.network import Network
from repro.protocols import ops
from repro.protocols.table import TransitionTable
from repro.sim.engine import Engine
from repro.sim.future import Future
from repro.sim.stats import Stats

# --------------------------------------------------- transition-table registry
#
# Every protocol family registers its declarative FSMs here at import
# time (``mesi/table.py``, ``vips/table.py``, ``callback/table.py``).
# The live protocol classes execute these tables for their state
# changes and ``repro.analyze.mc`` explores them exhaustively; the
# spec-coverage lint (CB-A211) fails any protocol without one.

_TABLES: Dict[str, Dict[str, TransitionTable]] = {}


def register_table(table: TransitionTable) -> TransitionTable:
    """Register a protocol FSM; returns the table for assignment chaining."""
    _TABLES.setdefault(table.protocol, {})[table.fsm] = table
    return table


def tables_for(protocol: str) -> Mapping[str, TransitionTable]:
    """The registered FSMs of one protocol family, keyed by FSM name."""
    return dict(_TABLES.get(protocol, {}))


def registered_tables() -> Dict[str, Dict[str, TransitionTable]]:
    """All registered tables: ``{protocol: {fsm: table}}``."""
    return {protocol: dict(tables) for protocol, tables in _TABLES.items()}


# Per-class resolved handler maps for CoherenceProtocol.issue():
# ``{protocol class: {op type: unbound handler}}``. Resolving once per
# class (instead of a getattr per call) keeps subclass overrides intact
# while removing ~40% of dispatch overhead on the issue() hot path —
# see benchmarks/bench_dispatch.py.
_HANDLER_CACHE: Dict[type, Dict[type, Callable[..., Future]]] = {}


class BankPort:
    """Occupancy of one single-ported LLC bank."""

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = 0

    def reserve(self, now: int, service: int) -> int:
        """Claim the port for ``service`` cycles starting no earlier than
        ``now``; returns the completion time."""
        start = max(now, self.busy_until)
        self.busy_until = start + service
        return self.busy_until


class CoherenceProtocol:
    """Common state and dispatch shared by all three protocol families."""

    def __init__(
        self,
        config: SystemConfig,
        engine: Engine,
        network: Network,
        stats: Stats,
        store: WordStore,
    ) -> None:
        self.config = config
        self.engine = engine
        self.network = network
        self.stats = stats
        self.store = store
        self.addr_map = AddressMap(config)
        self.classifier = PageClassifier(self.addr_map)
        self.memory = MainMemory(config, stats)
        self.banks = [BankPort() for _ in range(config.num_banks)]
        # Lines whose data is resident in the LLC (first touch pays DRAM).
        self._llc_present: set = set()
        #: Telemetry probe bus (set when a Telemetry attaches), else None.
        self.obs: Optional[Any] = None
        # Op dispatch: resolved once per concrete class, not per call.
        self._handlers = self._resolve_handlers()

    # ------------------------------------------------------------------ API

    @classmethod
    def _resolve_handlers(cls) -> Dict[type, Callable[..., Future]]:
        """The op-type -> handler map for this class, resolved through the
        MRO exactly once (so subclass overrides apply, without paying a
        ``getattr`` on every :meth:`issue` call)."""
        handlers = _HANDLER_CACHE.get(cls)
        if handlers is None:
            handlers = {op_type: getattr(cls, name)
                        for op_type, name in _DISPATCH.items()}
            _HANDLER_CACHE[cls] = handlers
        return handlers

    def issue(self, core: int, op: ops.Op) -> Future:
        """Start one memory operation for ``core``; resolve when done."""
        handler = self._handlers.get(type(op))
        if handler is None:
            raise TypeError(f"{type(self).__name__} cannot execute {op!r}")
        return handler(self, core, op)

    # Subclasses override these; the table maps op types to method names.
    def _op_load(self, core: int, op: ops.Load) -> Future:
        raise NotImplementedError

    def _op_store(self, core: int, op: ops.Store) -> Future:
        raise NotImplementedError

    def _op_load_through(self, core: int, op: ops.LoadThrough) -> Future:
        raise NotImplementedError

    def _op_load_cb(self, core: int, op: ops.LoadCB) -> Future:
        raise NotImplementedError

    def _op_store_through(self, core: int, op: ops.StoreThrough) -> Future:
        raise NotImplementedError

    def _op_store_cb1(self, core: int, op: ops.StoreCB1) -> Future:
        raise NotImplementedError

    def _op_store_cb0(self, core: int, op: ops.StoreCB0) -> Future:
        raise NotImplementedError

    def _op_atomic(self, core: int, op: ops.Atomic) -> Future:
        raise NotImplementedError

    def _op_fence(self, core: int, op: ops.Fence) -> Future:
        raise NotImplementedError

    def _op_spin_until(self, core: int, op: ops.SpinUntil) -> Future:
        raise NotImplementedError

    def _op_data_burst(self, core: int, op: ops.DataBurst) -> Future:
        raise NotImplementedError

    # --------------------------------------------------------------- helpers

    def bank_of(self, addr: int) -> int:
        return self.addr_map.bank_of(addr)

    def node_of(self, tid: int) -> int:
        """The mesh tile of a hardware thread (its core's tile). With
        SMT off (threads_per_core == 1) this is the identity map."""
        return self.config.core_of(tid)

    def l1_of(self, tid: int) -> int:
        """The L1 a hardware thread uses (one per core, shared by its
        SMT siblings)."""
        return self.config.core_of(tid)

    def bank_service(self, bank: int, data: bool, sync: bool = False) -> int:
        """Occupy bank ``bank`` for a tag or tag+data access starting now.

        Returns the number of cycles until the access completes (including
        any wait for the port). Books the access on the stats object.
        """
        service = self.config.llc_data_latency if data else self.config.llc_tag_latency
        done = self.banks[bank].reserve(self.engine.now, service)
        self.stats.llc_accesses += 1
        if data:
            self.stats.llc_data_accesses += 1
        else:
            self.stats.llc_tag_accesses += 1
        if sync:
            self.stats.llc_sync_accesses += 1
        return done - self.engine.now

    def llc_fill_latency(self, line: int) -> int:
        """Extra cycles if the line misses in the LLC (first touch).

        The LLC is modelled as large enough to hold every line after its
        first fetch (16 MB aggregate vs. the paper's working sets); only
        cold misses pay the 160-cycle DRAM access.
        """
        if line in self._llc_present:
            return 0
        self._llc_present.add(line)
        self.stats.llc_misses += 1
        return self.memory.access()

    def apply_rmw(self, op: ops.Atomic) -> ops.AtomicResult:
        """Execute the modify step of an RMW against the word store."""
        kind, operands = op.kind, op.operands
        if kind is ops.AtomicKind.TAS:
            test, setv = operands
            old, wrote = self.store.test_and_set(op.addr, test, setv)
            return ops.AtomicResult(old, wrote)
        if kind is ops.AtomicKind.FETCH_ADD:
            (delta,) = operands
            old = self.store.fetch_add(op.addr, delta)
            return ops.AtomicResult(old, True)
        if kind is ops.AtomicKind.SWAP:
            (new,) = operands
            old = self.store.swap(op.addr, new)
            return ops.AtomicResult(old, True)
        if kind is ops.AtomicKind.TDEC:
            old = self.store.read(op.addr)
            if old != 0:
                self.store.write(op.addr, old - 1)
                return ops.AtomicResult(old, True)
            return ops.AtomicResult(old, False)
        if kind is ops.AtomicKind.CAS:
            expect, new = operands
            old, wrote = self.store.compare_and_swap(op.addr, expect, new)
            return ops.AtomicResult(old, wrote)
        raise ValueError(f"unknown atomic kind: {kind}")

    def parked_cores(self) -> int:
        """How many hardware threads are blocked waiting for a wakeup
        right now — callback waiters or MESI spin watches. The telemetry
        layer samples this as the ``cores_parked`` gauge; the base
        protocol has no parking mechanism."""
        return 0

    def ckpt_state(self) -> Dict[str, object]:
        """Canonical capture of the memory-system state below the cores
        (the snapshottability contract, :mod:`repro.ckpt.state`).

        Subclasses MUST call ``super().ckpt_state()`` and extend the
        dict with every piece of mutable protocol state — L1 contents,
        directory records, parked-waiter tables — so that two machines
        with equal captures behave identically from here on. Bank port
        occupancy is trimmed to ports still busy now-or-later, mirroring
        :meth:`~repro.noc.network.Network.ckpt_state`."""
        now = self.engine.now
        return {
            "kind": type(self).__name__,
            "banks": [max(port.busy_until, now) for port in self.banks],
            "llc_present": sorted(self._llc_present),
            "classifier": self.classifier.ckpt_state(),
        }

    def resolve_later(self, future: Future, delay: int,
                      value: object = None) -> None:
        """Resolve ``future`` after ``delay`` cycles (always via the engine,
        so completions never recurse into the core synchronously)."""
        self.engine.schedule(max(1, delay), lambda: future.resolve(value))


# Dispatch table shared by all subclasses: op type -> method name, the
# source from which _resolve_handlers builds each class's handler map.
_DISPATCH: Dict[type, str] = {
    ops.Load: "_op_load",
    ops.Store: "_op_store",
    ops.LoadThrough: "_op_load_through",
    ops.LoadCB: "_op_load_cb",
    ops.StoreThrough: "_op_store_through",
    ops.StoreCB1: "_op_store_cb1",
    ops.StoreCB0: "_op_store_cb0",
    ops.Atomic: "_op_atomic",
    ops.Fence: "_op_fence",
    ops.SpinUntil: "_op_spin_until",
    ops.DataBurst: "_op_data_burst",
}
