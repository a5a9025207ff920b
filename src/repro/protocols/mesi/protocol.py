"""The Invalidation baseline: a directory-based MESI protocol.

Timing/semantics summary (each step is a real engine event):

* L1 hit: 1 cycle, value from the line's fill-time snapshot.
* L1 read miss: GetS to the home bank; the directory serializes per-line
  transactions; data comes from the LLC (2-hop) or is forwarded by the
  E/M owner (3-hop, owner also writes back). DRAM charged on LLC cold miss.
* L1 write miss / upgrade: GetX; the directory invalidates every sharer
  (Inv + Ack per sharer — acks are collected by the requester), or
  forwards to the owner; writes commit to the global word store when the
  requester has data + all acks.
* Atomics acquire M state like a store, then read-modify-write locally.
* Spin-waiting (``SpinUntil``) spins on the local L1 copy: the core blocks
  until an invalidation hits the watched line, with L1 accesses and spin
  iterations accounted analytically (elapsed / spin_iteration_cycles), then
  re-fetches and re-checks — the classic invalidate-and-refetch spin.
* Fences are no-ops (the MESI baseline is the paper's unfenced SC code).

Evictions: M lines write back (PutM, data-bearing); E lines notify the
directory with a control message; S lines are evicted silently (the
directory tolerates stale sharers — an Inv to a non-resident line is
acked and otherwise ignored).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.mem.cache import SetAssociativeCache
from repro.noc.messages import MsgKind
from repro.protocols import ops
from repro.protocols.base import CoherenceProtocol
from repro.protocols.mesi.states import DirEntry, L1Line, MESIState
from repro.protocols.mesi.table import MESI_DIR_TABLE, MESI_L1_TABLE
from repro.protocols.table import Event as TableEvent
from repro.sim.future import Future


class _Watch:
    """A thread blocked in SpinUntil, waiting for the L1 copy to die."""

    __slots__ = ("pred", "future", "start", "word_addr", "tid")

    def __init__(self, pred: Callable[[int], bool], future: Future,
                 start: int, word_addr: int) -> None:
        self.pred = pred
        self.future = future
        self.start = start
        self.word_addr = word_addr
        self.tid = -1


class MESIProtocol(CoherenceProtocol):
    """Directory-based MESI over the mesh ("Invalidation" in the paper)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        cfg = self.config
        self.l1 = [
            SetAssociativeCache(cfg.l1_sets, cfg.l1_ways,
                                policy=cfg.l1_replacement)
            for _ in range(cfg.num_cores)
        ]
        self._dir: Dict[int, DirEntry] = {}
        # core -> line -> [watches] for threads parked in SpinUntil
        # (SMT siblings share an L1, so one line may carry several).
        self._watches: Dict[int, Dict[int, list]] = {}

    # ------------------------------------------------------------ utilities

    def ckpt_state(self) -> Dict[str, object]:
        """Base capture + L1 arrays, directory records, and parked
        SpinUntil watches (checkpoint snapshottability contract)."""
        state = super().ckpt_state()
        state["l1"] = [cache.ckpt_state(lambda line: line.ckpt_state())
                       for cache in self.l1]
        state["dir"] = {str(line): entry.ckpt_state()
                        for line, entry in self._dir.items()
                        if entry.owner is not None or entry.sharers
                        or entry.busy or entry.queue}
        state["watches"] = {
            str(core): {str(line): [[w.word_addr, w.start, w.tid]
                                    for w in watches]
                        for line, watches in per_core.items() if watches}
            for core, per_core in self._watches.items()
            if any(per_core.values())
        }
        return state

    def _entry(self, line: int) -> DirEntry:
        entry = self._dir.get(line)
        if entry is None:
            entry = DirEntry()
            self._dir[line] = entry
        return entry

    def _snapshot_line(self, line: int) -> Dict[int, int]:
        """Word values of a line as the LLC/owner would supply them now."""
        base = line * self.config.line_bytes
        step = self.config.word_bytes
        return {
            base + i * step: self.store.read(base + i * step)
            for i in range(self.config.words_per_line)
        }

    def _l1_lookup(self, tid: int, line: int) -> Optional[L1Line]:
        cached = self.l1[self.l1_of(tid)].lookup(line)
        return cached.payload if cached is not None else None

    def _l1_fill(self, tid: int, line: int, state: MESIState) -> L1Line:
        """Install a line in the requester's L1, handling the victim."""
        core = self.l1_of(tid)
        payload = L1Line(state, self._snapshot_line(line))
        _inserted, victim = self.l1[core].insert(line, payload)
        if victim is not None:
            self._evict(core, victim.line, victim.payload)
        return payload

    def _evict(self, core: int, line: int, payload: L1Line) -> None:
        """Handle an L1 replacement victim: the L1 table names the
        action (data-bearing PutM, control PutE, or silent S drop)."""
        bank = line % self.config.num_banks
        step = MESI_L1_TABLE.step({"mesi": payload.state.value},
                                  TableEvent("evict"))
        actions = {emit.kind for emit in step.emits}
        if "putm" in actions:
            self.stats.writebacks += 1
            self.network.send(
                core, bank, MsgKind.PUTM, lambda: self._dir_put(line, core)
            )
        elif "pute" in actions:
            self.network.send(
                core, bank, MsgKind.ACK, lambda: self._dir_put(line, core)
            )
        # Otherwise: silent S eviction; the directory keeps a stale sharer.

    def _dir_put(self, line: int, core: int) -> None:
        entry = self._entry(line)
        step = MESI_DIR_TABLE.step(entry.view(), TableEvent("put", core=core))
        entry.adopt(step.state)

    def _invalidate_l1(self, core: int, line: int) -> None:
        """An invalidation (or owner-forward) kills the L1 copy and wakes
        every spin-watcher parked on it (``core`` is an L1/core index)."""
        self.l1[core].remove(line)
        watches = self._watches.get(core, {}).pop(line, None)
        if not watches:
            return
        for watch in watches:
            elapsed = max(0, self.engine.now - watch.start)
            iters = max(1, elapsed // self.config.spin_iteration_cycles)
            self.stats.spin_iterations += iters
            self.stats.l1_accesses += iters
            self.stats.l1_hits += iters
            if self.obs is not None:
                self.obs.emit("spin.wake", core=watch.tid,
                              word=watch.word_addr, iters=iters)
            # The spin loop reloads immediately (invalidate-and-refetch).
            self.engine.schedule(
                1, lambda w=watch: self._spin_attempt(w.tid, w.word_addr,
                                                      w.pred, w.future)
            )

    def _check_local_watches(self, core: int, line: int) -> None:
        """A store that commits locally (M/E hit) is visible to SMT
        siblings through the shared L1 without any invalidation: re-check
        their parked spin predicates against the new value."""
        watches = self._watches.get(core, {}).get(line)
        if not watches:
            return
        cached = self.l1[core].lookup(line)
        still_parked = []
        for watch in watches:
            value = cached.payload.read_word(watch.word_addr) if cached else 0
            if watch.pred(value):
                elapsed = max(0, self.engine.now - watch.start)
                iters = max(1, elapsed // self.config.spin_iteration_cycles)
                self.stats.spin_iterations += iters
                self.stats.l1_accesses += iters
                self.stats.l1_hits += iters
                if self.obs is not None:
                    self.obs.emit("spin.wake", core=watch.tid,
                                  word=watch.word_addr, iters=iters)
                self.resolve_later(watch.future, self.config.l1_latency,
                                   value)
            else:
                still_parked.append(watch)
        if still_parked:
            self._watches[core][line] = still_parked
        else:
            del self._watches[core][line]

    # ----------------------------------------------------- directory engine

    def _dir_request(self, line: int, thunk: Callable[[], None]) -> None:
        """Run ``thunk`` when the line is free, serializing transactions."""
        entry = self._entry(line)
        if entry.busy:
            entry.queue.append(thunk)
        else:
            entry.busy = True
            thunk()

    def _dir_release(self, line: int) -> None:
        entry = self._entry(line)
        if not entry.busy:
            raise RuntimeError(f"directory release of idle line {line:#x}")
        if entry.queue:
            thunk = entry.queue.pop(0)
            self.engine.schedule(0, thunk)
        else:
            entry.busy = False

    # A queued thunk runs with busy still held by convention: _dir_release
    # pops the next thunk without clearing busy, so exactly one transaction
    # is in flight per line.

    # ----------------------------------------------------------------- GetS

    def _get_s(self, core: int, line: int, on_fill: Callable[[L1Line], None],
               sync: bool) -> None:
        """Issue a GetS from ``core``; call ``on_fill`` once the line is in
        its L1 (in S or E)."""
        self.stats.l1_misses += 1
        bank = line % self.config.num_banks
        self.network.send(
            self.l1_of(core), bank, MsgKind.GETS,
            lambda: self._dir_request(
                line, lambda: self._dir_gets(core, line, bank, on_fill, sync)
            ),
            sync=sync,
        )

    def _dir_gets(self, tid: int, line: int, bank: int,
                  on_fill: Callable[[L1Line], None], sync: bool) -> None:
        """Directory identities (owner/sharers) are L1/core indices; the
        requesting hardware thread keeps its tid for the fill. The
        decision (forward vs. fill, E vs. S) comes from the declarative
        directory table; this method adds the timing and messaging."""
        node = self.l1_of(tid)
        entry = self._entry(line)
        step = MESI_DIR_TABLE.step(entry.view(), TableEvent("gets", core=node))
        if step.transition.name == "gets_forward":
            owner = next(e.core for e in step.emits if e.kind == "fwd")
            assert owner is not None
            self.stats.forwards += 1
            wait = self.bank_service(bank, data=False, sync=sync)
            # Fwd to owner; owner downgrades to S, sends data to requester
            # and a (data) copy back to the LLC.
            def at_owner() -> None:
                cached = self.l1[owner].lookup(line)
                if cached is not None:
                    cached.payload.transition("fwd_gets")
                self.network.send(owner, bank, MsgKind.DATA, lambda: None)
                self.stats.writebacks += 1
                self.network.send(
                    owner, node, MsgKind.DATA,
                    lambda: self._finish_gets(tid, line, MESIState.SHARED,
                                              on_fill),
                )
            self.engine.schedule(wait,
                                 lambda: self.network.send(bank, owner,
                                                           MsgKind.FWD,
                                                           at_owner))
            entry.adopt(step.state)
        else:
            wait = self.bank_service(bank, data=True, sync=sync)
            wait += self.llc_fill_latency(line)
            grant = next(e.get("grant") for e in step.emits
                         if e.kind == "data")
            state = (MESIState.EXCLUSIVE if grant == "E"
                     else MESIState.SHARED)
            entry.adopt(step.state)
            self.engine.schedule(
                wait,
                lambda: self.network.send(
                    bank, node, MsgKind.DATA,
                    lambda: self._finish_gets(tid, line, state, on_fill),
                ),
            )

    def _finish_gets(self, core: int, line: int, state: MESIState,
                     on_fill: Callable[[L1Line], None]) -> None:
        payload = self._l1_fill(core, line, state)
        # Unblock the directory (free bookkeeping event, modelling the
        # piggybacked Unblock of split-transaction MESI).
        self._dir_release(line)
        on_fill(payload)

    # ----------------------------------------------------------------- GetX

    def _get_x(self, core: int, line: int, on_owned: Callable[[L1Line], None],
               sync: bool) -> None:
        """Obtain M state for ``core``; call ``on_owned`` when writable."""
        cached = self._l1_lookup(core, line)
        if cached is not None and cached.state in (MESIState.MODIFIED,):
            on_owned(cached)
            return
        if cached is not None and cached.state is MESIState.EXCLUSIVE:
            cached.transition("store")
            on_owned(cached)
            return
        self.stats.l1_misses += 1
        bank = line % self.config.num_banks
        self.network.send(
            self.l1_of(core), bank, MsgKind.GETX,
            lambda: self._dir_request(
                line, lambda: self._dir_getx(core, line, bank, on_owned, sync)
            ),
            sync=sync,
        )

    def _dir_getx(self, tid: int, line: int, bank: int,
                  on_owned: Callable[[L1Line], None], sync: bool) -> None:
        node = self.l1_of(tid)
        entry = self._entry(line)
        step = MESI_DIR_TABLE.step(entry.view(), TableEvent("getx", core=node))
        if step.transition.name == "getx_forward":
            owner = next(e.core for e in step.emits if e.kind == "fwd")
            assert owner is not None
            self.stats.forwards += 1
            wait = self.bank_service(bank, data=False, sync=sync)

            def at_owner() -> None:
                self._invalidate_l1(owner, line)
                self.network.send(
                    owner, node, MsgKind.DATA,
                    lambda: self._finish_getx(tid, line, on_owned),
                )

            self.engine.schedule(
                wait, lambda: self.network.send(bank, owner, MsgKind.FWD,
                                                at_owner))
            entry.adopt(step.state)
            return

        # The table plans the invalidation fan-out (ascending sharer
        # order) and whether the requester needs data or just an ack.
        sharers = [e.core for e in step.emits if e.kind == "inv"]
        was_sharer = any(e.kind == "grant" for e in step.emits)
        entry.adopt(step.state)

        # Completion requires the grant/data plus one ack per invalidated
        # sharer, all collected at the requester.
        pending = {"count": 1 + len(sharers)}

        def arrived() -> None:
            pending["count"] -= 1
            if pending["count"] == 0:
                self._finish_getx(tid, line, on_owned)

        wait = self.bank_service(bank, data=not was_sharer, sync=sync)
        if not was_sharer:
            wait += self.llc_fill_latency(line)

        for sharer in sharers:
            assert sharer is not None
            self.stats.invalidations_sent += 1
            if self.obs is not None:
                self.obs.emit("mesi.inv", line=line, sharer=sharer,
                              requester=node)

            def make_inv(s: int) -> Callable[[], None]:
                def at_sharer() -> None:
                    self._invalidate_l1(s, line)
                    self.stats.invalidation_acks += 1
                    self.network.send(s, node, MsgKind.ACK, arrived)
                return at_sharer

            self.engine.schedule(
                wait, lambda s=sharer: self.network.send(bank, s, MsgKind.INV,
                                                         make_inv(s)))

        grant_kind = MsgKind.ACK if was_sharer else MsgKind.DATA
        self.engine.schedule(
            wait, lambda: self.network.send(bank, node, grant_kind, arrived))

    def _finish_getx(self, core: int, line: int,
                     on_owned: Callable[[L1Line], None]) -> None:
        payload = self._l1_fill(core, line, MESIState.MODIFIED)
        self._dir_release(line)
        on_owned(payload)

    # ------------------------------------------------------------------ ops

    def _op_load(self, core: int, op: ops.Load) -> Future:
        future = Future()
        self.stats.l1_accesses += 1
        line = self.addr_map.line_of(op.addr)
        word = self.addr_map.word_base(op.addr)
        cached = self._l1_lookup(core, line)
        if cached is not None:
            self.stats.l1_hits += 1
            self.resolve_later(future, self.config.l1_latency,
                               cached.read_word(word))
        else:
            self._get_s(core, line,
                        lambda payload: future.resolve(payload.read_word(word)),
                        sync=False)
        return future

    def _op_store(self, core: int, op: ops.Store) -> Future:
        future = Future()
        self.stats.l1_accesses += 1
        line = self.addr_map.line_of(op.addr)
        word = self.addr_map.word_base(op.addr)

        def commit(payload: L1Line) -> None:
            if op.value is not None:
                self.store.write(word, op.value)
                payload.write_word(word, op.value)
                self._check_local_watches(self.l1_of(core), line)
            self.resolve_later(future, self.config.l1_latency)

        cached = self._l1_lookup(core, line)
        if cached is not None and cached.state in (MESIState.MODIFIED,
                                                   MESIState.EXCLUSIVE):
            self.stats.l1_hits += 1
            cached.transition("store")
            commit(cached)
        else:
            self._get_x(core, line, commit, sync=op.value is not None)
        return future

    def _op_atomic(self, core: int, op: ops.Atomic) -> Future:
        """RMWs acquire M state and execute locally (ll/sc-free model)."""
        future = Future()
        self.stats.l1_accesses += 1
        line = self.addr_map.line_of(op.addr)
        word = self.addr_map.word_base(op.addr)

        def owned(payload: L1Line) -> None:
            result = self.apply_rmw(op)
            payload.write_word(word, self.store.read(word))
            self._check_local_watches(self.l1_of(core), line)
            self.resolve_later(future,
                               self.config.l1_latency +
                               self.config.rmw_compute_cycles,
                               result)

        cached = self._l1_lookup(core, line)
        if cached is not None and cached.state is MESIState.MODIFIED:
            self.stats.l1_hits += 1
            owned(cached)
        elif cached is not None and cached.state is MESIState.EXCLUSIVE:
            self.stats.l1_hits += 1
            cached.transition("store")
            owned(cached)
        else:
            self._get_x(core, line, owned, sync=True)
        return future

    # MESI racy ops fall back to their plain equivalents: the baseline has
    # no notion of through/callback accesses (synchronization code for MESI
    # uses plain loads/stores/atomics, Figures 8-18 left-hand sides).
    def _op_load_through(self, core: int, op: ops.LoadThrough) -> Future:
        return self._op_load(core, ops.Load(op.addr))

    def _op_store_through(self, core: int, op: ops.StoreThrough) -> Future:
        return self._op_store(core, ops.Store(op.addr, op.value))

    def _op_store_cb1(self, core: int, op: ops.StoreCB1) -> Future:
        return self._op_store(core, ops.Store(op.addr, op.value))

    def _op_store_cb0(self, core: int, op: ops.StoreCB0) -> Future:
        return self._op_store(core, ops.Store(op.addr, op.value))

    def _op_load_cb(self, core: int, op: ops.LoadCB) -> Future:
        raise TypeError("ld_cb is not available under the MESI baseline; "
                        "MESI spin-waiting uses SpinUntil (local spinning)")

    def _op_fence(self, core: int, op: ops.Fence) -> Future:
        future = Future()
        self.resolve_later(future, 1)
        return future

    # ------------------------------------------------------------- spinning

    def _op_spin_until(self, core: int, op: ops.SpinUntil) -> Future:
        future = Future()
        self._spin_attempt(core, self.addr_map.word_base(op.addr), op.pred,
                           future)
        return future

    def _spin_attempt(self, core: int, word_addr: int,
                      pred: Callable[[int], bool], future: Future) -> None:
        line = self.addr_map.line_of(word_addr)
        self.stats.l1_accesses += 1
        cached = self._l1_lookup(core, line)
        if cached is not None:
            self.stats.l1_hits += 1
            value = cached.read_word(word_addr)
            if pred(value):
                self.resolve_later(future, self.config.l1_latency, value)
            else:
                self._park_watch(core, line, word_addr, pred, future)
            return

        def filled(payload: L1Line) -> None:
            value = payload.read_word(word_addr)
            if pred(value):
                future.resolve(value)
            else:
                self._park_watch(core, line, word_addr, pred, future)

        self._get_s(core, line, filled, sync=True)

    def _park_watch(self, tid: int, line: int, word_addr: int,
                    pred: Callable[[int], bool], future: Future) -> None:
        watch = _Watch(pred, future, self.engine.now, word_addr)
        watch.tid = tid
        bucket = self._watches.setdefault(self.l1_of(tid), {})
        bucket.setdefault(line, []).append(watch)
        if self.obs is not None:
            self.obs.emit("spin.park", core=tid, word=word_addr)

    def parked_cores(self) -> int:
        """Threads blocked in a SpinUntil watch right now."""
        return sum(len(watches) for per_line in self._watches.values()
                   for watches in per_line.values())

    # ------------------------------------------------------------ data side

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
