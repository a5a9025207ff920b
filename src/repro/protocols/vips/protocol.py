"""VIPS-M-style self-invalidation / self-downgrade protocol.

This is the paper's directory-free baseline (Section 3.1, evaluated as
``BackOff-N``):

* DRF data lives in the L1 with no directory. Pages are classified
  private/shared by first touch; at a ``self_invl`` fence (acquire) every
  *shared* line is discarded from the L1, and at a ``self_down`` fence
  (release) every dirty shared word is written through to the LLC.
  Private lines are untouched by fences (VIPS-M excludes private data
  from coherence).
* Racy (synchronization) accesses bypass the L1: ``ld_through`` reads the
  word at the LLC, ``st_through``/``st_cb*`` write it through, atomics
  execute at the home bank under an MSHR lock. All of these are
  sequentially consistent among themselves because the home bank
  serializes them.
* There is no callback directory here: spin-waiting re-executes
  ``ld_through`` with exponential back-off (``BackoffWait`` ops inserted
  by the synchronization library, with delay
  ``base * 2**min(attempt, limit)``).

The callback protocol subclasses this and overrides only the racy-op
handlers, exactly mirroring how the paper adds the callback directory on
top of an unchanged VIPS-M.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from repro.mem.cache import SetAssociativeCache
from repro.noc.messages import MsgKind
from repro.protocols import ops
from repro.protocols.base import CoherenceProtocol
from repro.protocols.vips.table import (
    drops_on_self_invl,
    flushes_on_fence,
    writes_back_on_evict,
)
from repro.sim.future import Future, WaitQueue


class VIPSLine:
    """L1 payload: classification at fill time + dirty word tracking."""

    __slots__ = ("shared", "dirty_words")

    def __init__(self, shared: bool) -> None:
        self.shared = shared
        self.dirty_words: Set[int] = set()

    def ckpt_state(self) -> Dict[str, object]:
        """Classification + dirty-word mask (checkpoint capture)."""
        return {"shared": self.shared, "dirty": sorted(self.dirty_words)}


class VIPSProtocol(CoherenceProtocol):
    """Self-invalidation + self-downgrade, LLC spinning with back-off.

    Fence and eviction decisions come from the predicates in
    :mod:`repro.protocols.vips.table` — the same predicates the
    declarative ``VIPS_L1_TABLE`` wires into its guards, so the model
    checker explores exactly the discipline executed here.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        cfg = self.config
        self.l1 = [
            SetAssociativeCache(cfg.l1_sets, cfg.l1_ways,
                                policy=cfg.l1_replacement)
            for _ in range(cfg.num_cores)
        ]
        # Per-L1 fence indexes (derived, not checkpointed): O(lines) fences.
        self._shared_lines: List[Set[int]] = [set() for _ in self.l1]
        self._dirty_shared: List[Set[int]] = [set() for _ in self.l1]
        # Per-word atomic serialization at the home bank (LLC MSHR lock).
        self._mshr_locked: Dict[int, WaitQueue] = {}

    def ckpt_state(self) -> Dict[str, object]:
        """Base capture + L1 arrays and held MSHR locks (checkpoint
        snapshottability contract)."""
        state = super().ckpt_state()
        state["l1"] = [cache.ckpt_state(lambda line: line.ckpt_state())
                       for cache in self.l1]
        # Key presence == lock held (even with an empty wait queue), so
        # every entry is captured; the value is the contention depth.
        state["mshr"] = {word: len(queue)
                         for word, queue in sorted(self._mshr_locked.items())}
        return state

    # --------------------------------------------------------- DRF data ops

    def _op_load(self, core: int, op: ops.Load) -> Future:
        future = Future()
        self.stats.l1_accesses += 1
        line = self.addr_map.line_of(op.addr)
        cached = self.l1[self.l1_of(core)].lookup(line)
        if cached is not None:
            self.stats.l1_hits += 1
            self.resolve_later(future, self.config.l1_latency,
                               self.store.read(self.addr_map.word_base(op.addr)))
        else:
            self._fetch_line(core, op.addr, lambda: future.resolve(
                self.store.read(self.addr_map.word_base(op.addr))))
        return future

    def _op_store(self, core: int, op: ops.Store) -> Future:
        """DRF store: write-allocate in the L1, mark the word dirty; shared
        dirty words are flushed by ``self_down`` (delayed write-through)."""
        future = Future()
        self.stats.l1_accesses += 1
        line = self.addr_map.line_of(op.addr)
        word = self.addr_map.word_base(op.addr)

        def commit() -> None:
            node = self.l1_of(core)
            cached = self.l1[node].lookup(line)
            if cached is not None:
                payload: VIPSLine = cached.payload
                payload.dirty_words.add(word)
                if flushes_on_fence(payload.shared, payload.dirty_words):
                    self._dirty_shared[node].add(line)
            if op.value is not None:
                self.store.write(word, op.value)
            self.resolve_later(future, self.config.l1_latency)

        cached = self.l1[self.l1_of(core)].lookup(line)
        if cached is not None:
            self.stats.l1_hits += 1
            commit()
        else:
            self._fetch_line(core, op.addr, commit)
        return future

    def _fetch_line(self, core: int, addr: int, done: Callable[[], None]
                    ) -> None:
        """Line fetch from the LLC (no directory: always a 2-hop fill)."""
        self.stats.l1_misses += 1
        line = self.addr_map.line_of(addr)
        bank = self.bank_of(addr)
        node = self.l1_of(core)
        shared = self.classifier.touch(addr, node)

        def at_bank() -> None:
            wait = self.bank_service(bank, data=True)
            wait += self.llc_fill_latency(line)
            self.engine.schedule(
                wait,
                lambda: self.network.send(bank, node, MsgKind.DATA,
                                          lambda: self._fill(core, line,
                                                             shared, done)),
            )

        self.network.send(node, bank, MsgKind.GETS, at_bank)

    def _fill(self, core: int, line: int, shared: bool,
              done: Callable[[], None]) -> None:
        node = self.l1_of(core)
        _entry, victim = self.l1[node].insert(line, VIPSLine(shared))
        self._dirty_shared[node].discard(line)  # a re-fill comes in clean
        if drops_on_self_invl(shared):
            self._shared_lines[node].add(line)
        else:
            self._shared_lines[node].discard(line)
        if victim is not None:
            self._shared_lines[node].discard(victim.line)
            self._dirty_shared[node].discard(victim.line)
            self._write_back_victim(node, victim.line, victim.payload)
        done()

    def _write_back_victim(self, core: int, line: int, payload: VIPSLine
                           ) -> None:
        """Evicted dirty lines write their dirty words through."""
        if writes_back_on_evict(payload.dirty_words):
            bank = line % self.config.num_banks
            self.stats.words_written_through += len(payload.dirty_words)
            self.stats.writebacks += 1
            self.network.send(core, bank, MsgKind.WRITE_THROUGH, lambda: None)

    # ------------------------------------------------------- fault injection

    def drop_clean_line(self, core: int, selector: int = 0) -> Optional[int]:
        """Fault injection: silently drop one *clean* line from ``core``'s
        L1 (the ``selector``-th resident clean line, modulo their count).

        Safe by the same argument that makes self-invalidation correct:
        a clean line can always be refetched from the LLC, so a transient
        drop perturbs timing (an extra miss) but never data. Dirty lines
        are never dropped — that would lose writes, which no component of
        the modelled system does. Returns the dropped line number, or
        None if the L1 holds no clean line."""
        l1 = self.l1[self.l1_of(core)]
        clean = [entry.line for entry in l1 if not entry.payload.dirty_words]
        if not clean:
            return None
        line = clean[selector % len(clean)]
        l1.remove(line)
        self._shared_lines[self.l1_of(core)].discard(line)
        self.stats.l1_fault_drops += 1
        if self.obs is not None:
            self.obs.emit("l1.fault_drop", core=core, line=line)
        return line

    # --------------------------------------------------------------- fences

    def _op_fence(self, core: int, op: ops.Fence) -> Future:
        if op.kind not in (ops.FenceKind.SELF_INVL, ops.FenceKind.SELF_DOWN):
            raise ValueError(f"unknown fence: {op.kind}")
        future = Future()
        # Both fences write dirty shared words through; for self_invl this
        # is footnote 7's downgrade, so the invalidation cannot lose data.
        flush_delay = self._flush_dirty_shared(core)
        if op.kind is ops.FenceKind.SELF_DOWN:
            self.stats.self_downgrades += 1
        else:
            node = self.l1_of(core)
            shared = self._shared_lines[node]
            for line in shared:
                self.l1[node].remove(line)
            self.stats.self_invalidations += 1
            self.stats.lines_self_invalidated += len(shared)
            if self.obs is not None:
                self.obs.emit("vips.self_invl", core=core, lines=len(shared))
            shared.clear()
        self.resolve_later(future, 1 + flush_delay)
        return future

    def _flush_dirty_shared(self, core: int) -> int:
        """Write all dirty shared words through to their home banks.

        Returns the fence's completion delay: the write-throughs drain in
        parallel per bank; the fence waits for the slowest ack round-trip.
        """
        max_latency = 0
        node = self.l1_of(core)
        dirty = self._dirty_shared[node]
        # Only sets holding dirty shared lines, in full-scan (= send) order.
        for entry in self.l1[node].entries_of_sets(dirty):
            payload: VIPSLine = entry.payload
            if not flushes_on_fence(payload.shared, payload.dirty_words):
                continue
            bank = entry.line % self.config.num_banks
            count = len(payload.dirty_words)
            self.stats.words_written_through += count
            payload.dirty_words.clear()
            # One word-sized write-through message per dirty word plus one
            # ack per line (merged acks), as in VIPS-M's word-merged flush.
            for _ in range(count):
                self.network.send(node, bank, MsgKind.WRITE_THROUGH,
                                  lambda: None)
            latency = (self.network.message_latency(node, bank,
                                                    MsgKind.WRITE_THROUGH)
                       + self.bank_service(bank, data=True)
                       + self.network.message_latency(bank, node, MsgKind.ACK))
            self.network.send(bank, node, MsgKind.ACK, lambda: None)
            max_latency = max(max_latency, latency)
        dirty.clear()
        return max_latency

    # ------------------------------------------------------------- racy ops

    def _op_load_through(self, core: int, op: ops.LoadThrough) -> Future:
        """Racy load: bypass the L1, read the word at the home bank."""
        future = Future()
        bank = self.bank_of(op.addr)
        word = self.addr_map.word_base(op.addr)

        def at_bank() -> None:
            wait = self.bank_service(bank, data=True, sync=True)
            wait += self.llc_fill_latency(self.addr_map.line_of(op.addr))
            self.engine.schedule(
                wait,
                lambda: self.network.send(
                    bank, self.l1_of(core), MsgKind.DATA_WORD,
                    lambda: future.resolve(self.store.read(word)),
                ),
            )

        self.stats.llc_spin_probes += 1
        self.network.send(self.l1_of(core), bank, MsgKind.LOAD_THROUGH,
                          at_bank, sync=True)
        return future

    def _op_load_cb(self, core: int, op: ops.LoadCB) -> Future:
        """Without a callback directory, ld_cb degenerates to ld_through
        (the synchronization library only emits it with back-off)."""
        return self._op_load_through(core, ops.LoadThrough(op.addr))

    def _write_through(self, core: int, addr: int, value: int,
                       after: Optional[Callable[[int], None]] = None
                       ) -> Future:
        """Common path of st_through / st_cb0 / st_cb1 / st_cbA."""
        future = Future()
        bank = self.bank_of(addr)
        word = self.addr_map.word_base(addr)

        def at_bank() -> None:
            wait = self.bank_service(bank, data=True, sync=True)
            self.store.write(word, value)
            if after is not None:
                after(bank)
            self.engine.schedule(
                wait,
                lambda: self.network.send(bank, self.l1_of(core), MsgKind.ACK,
                                          lambda: future.resolve(None)),
            )

        self.network.send(self.l1_of(core), bank, MsgKind.STORE_THROUGH,
                          at_bank, sync=True)
        return future

    def _op_store_through(self, core: int, op: ops.StoreThrough) -> Future:
        return self._write_through(core, op.addr, op.value)

    def _op_store_cb1(self, core: int, op: ops.StoreCB1) -> Future:
        return self._write_through(core, op.addr, op.value)

    def _op_store_cb0(self, core: int, op: ops.StoreCB0) -> Future:
        return self._write_through(core, op.addr, op.value)

    # -------------------------------------------------------------- atomics

    def _op_atomic(self, core: int, op: ops.Atomic) -> Future:
        """RMW at the home bank under the word's MSHR lock (Section 2.6)."""
        future = Future()
        bank = self.bank_of(op.addr)
        word = self.addr_map.word_base(op.addr)

        def at_bank() -> None:
            self._mshr_acquire(word, lambda: self._exec_atomic(
                core, bank, word, op, future))

        self.network.send(self.l1_of(core), bank, MsgKind.ATOMIC, at_bank,
                          sync=True)
        return future

    def _exec_atomic(self, core: int, bank: int, word: int, op: ops.Atomic,
                     future: Future) -> None:
        wait = self.bank_service(bank, data=True, sync=True)
        wait += self.config.rmw_compute_cycles
        result = self.apply_rmw(op)

        def respond() -> None:
            self._mshr_release(word)
            self.network.send(bank, self.l1_of(core), MsgKind.DATA_WORD,
                              lambda: future.resolve(result))

        self.engine.schedule(wait, respond)

    def _mshr_acquire(self, word: int, thunk: Callable[[], None]) -> None:
        queue = self._mshr_locked.get(word)
        if queue is None:
            self._mshr_locked[word] = WaitQueue()
            thunk()
        else:
            queue.park().add_callback(lambda _v: thunk())

    def _mshr_release(self, word: int) -> None:
        queue = self._mshr_locked.get(word)
        if queue is None:
            raise RuntimeError(f"MSHR release without lock: {word:#x}")
        if queue:
            queue.wake_one()
        else:
            del self._mshr_locked[word]

    # ------------------------------------------------------- spinning & data

    def _op_spin_until(self, core: int, op: ops.SpinUntil) -> Future:
        raise TypeError("SpinUntil (local L1 spinning) requires the MESI "
                        "baseline; self-invalidation protocols spin on the "
                        "LLC via ld_through/ld_cb")

    def _op_data_burst(self, core: int, op: ops.DataBurst) -> Future:
        future = Future()
        accesses = list(op.accesses)

        def step() -> None:
            if not accesses:
                if op.extra_hits:
                    self.stats.l1_accesses += op.extra_hits
                    self.stats.l1_hits += op.extra_hits
                self.resolve_later(future, max(1, op.extra_hits))
                return
            access = accesses.pop(0)
            inner = (self._op_store(core, ops.Store(access.addr))
                     if access.write else self._op_load(core,
                                                        ops.Load(access.addr)))
            inner.add_callback(lambda _v: step())

        step()
        return future
