"""Protocol fuzzing: random racy-op soups must never corrupt or deadlock.

Strategy: generate a random sequence of racy operations per thread with
the single structural rule of the paper's Section 3.3 (a ld_cb spin is
always guarded and always bounded by a wake source) replaced by a
stronger harness guarantee — a dedicated "flusher" thread periodically
issues st_cbA writes to every word, so every parked callback is
eventually answered no matter what the fuzz did. Invariants are audited
afterwards, and value sanity is asserted throughout.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.hb import RaceMonitor
from repro.config import config_for
from repro.core.machine import Machine
from repro.protocols import ops
from repro.validation import audit_machine

LABELS = ("CB-All", "CB-One")


def _assert_race_free(report):
    """Every conflicting access in the run must be annotated (Table 1)."""
    assert not report.errors(), "\n".join(
        f"{finding.brief()}\n  witness: {finding.witness}"
        for finding in report.errors())

op_kind = st.sampled_from(
    ["ld_through", "st_through", "st_cb1", "st_cb0", "tas", "faa", "swap",
     "ld_cb"]
)


def _op_for(kind: str, addr: int, value: int) -> ops.Op:
    if kind == "ld_through":
        return ops.LoadThrough(addr)
    if kind == "ld_cb":
        return ops.LoadCB(addr)
    if kind == "st_through":
        return ops.StoreThrough(addr, value)
    if kind == "st_cb1":
        return ops.StoreCB1(addr, value)
    if kind == "st_cb0":
        return ops.StoreCB0(addr, value)
    if kind == "tas":
        return ops.Atomic(addr, ops.AtomicKind.TAS, (0, 1))
    if kind == "faa":
        return ops.Atomic(addr, ops.AtomicKind.FETCH_ADD, (1,))
    if kind == "swap":
        return ops.Atomic(addr, ops.AtomicKind.SWAP, (value,))
    raise AssertionError(kind)


@settings(max_examples=25, deadline=None)
@given(
    label=st.sampled_from(LABELS),
    script=st.lists(
        st.tuples(st.integers(0, 3), op_kind, st.integers(0, 2),
                  st.integers(1, 7)),
        min_size=1, max_size=60,
    ),
    entries=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_random_racy_soup_never_deadlocks(label, script, entries, seed):
    """Each tuple is (thread, op kind, word index, value)."""
    cfg = config_for(label, num_cores=4, seed=seed,
                     cb_entries_per_bank=entries)
    machine = Machine(cfg)
    words = [machine.layout.alloc_sync_word() for _ in range(3)]
    per_thread = {t: [] for t in range(4)}
    for thread, kind, word_index, value in script:
        per_thread[thread].append((kind, words[word_index], value))

    done = {"fuzzers": 0}

    def body(steps):
        def gen(ctx):
            for kind, addr, value in steps:
                yield _op_for(kind, addr, value)
                yield ops.Compute(1 + ctx.rng.randrange(10))
            done["fuzzers"] += 1
        return gen

    def flusher(ctx):
        # Guarantees forward progress: every word gets periodic st_cbA
        # writes (answering every parked callback) until all fuzz
        # threads have run to completion.
        while done["fuzzers"] < 3:
            yield ops.Compute(50)
            for addr in words:
                yield ops.StoreThrough(addr, 0)

    bodies = [body(per_thread[t]) for t in range(3)] + [flusher]
    monitor = RaceMonitor(machine)
    machine.spawn(bodies)
    machine.run()  # DeadlockError would propagate
    audit_machine(machine)
    # Purely annotated traffic: the happens-before sanitizer must not
    # report a single unannotated race, whatever the fuzz interleaved.
    _assert_race_free(monitor.finish())
    # After the final flush rounds, every word holds the flusher's 0 or a
    # later fuzz write that landed after it — always a value someone wrote.
    for addr in words:
        assert machine.store.read(addr) >= 0


@settings(max_examples=15, deadline=None)
@given(
    script=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=40),
    seed=st.integers(0, 2**16),
)
def test_mesi_random_load_store_soup_keeps_swmr(script, seed):
    """Random plain load/store interleavings: SWMR audited after every
    quiescent point."""
    from repro.validation import check_mesi_swmr
    cfg = config_for("Invalidation", num_cores=4, seed=seed)
    machine = Machine(cfg)
    words = [0x4000, 0x4040, 0x8000]
    counter = {"writes": 0}

    futures = []
    for i, (thread, word_index) in enumerate(script):
        addr = words[word_index]
        if i % 2:
            counter["writes"] += 1
            futures.append(machine.protocol.issue(
                thread, ops.Store(addr, i)))
        else:
            futures.append(machine.protocol.issue(thread, ops.Load(addr)))
    machine.engine.run()
    assert all(f.done for f in futures)
    check_mesi_swmr(machine.protocol)


def _fence_fuzz_machine(label):
    """L1s of two SMT threads each, with two 2-way sets: siblings re-fill
    each other's resident lines, and 8 lines over two pages force
    capacity victims."""
    cfg = config_for(label, num_cores=4, threads_per_core=2,
                     l1_size_bytes=256, l1_ways=2)
    machine = Machine(cfg)
    base = 0x40000
    lines = [base + page * 4096 + i * cfg.line_bytes
             for page in (0, 1) for i in range(4)]
    return machine, lines


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(("BackOff-10", "CB-One")),
    script=st.lists(
        st.tuples(st.integers(0, 3),
                  st.sampled_from(["load", "store", "invl", "down"]),
                  st.integers(0, 7), st.integers(0, 7)),
        min_size=24, max_size=120),
    drops=st.lists(st.tuples(st.integers(1, 3000), st.integers(0, 2**16)),
                   max_size=10),
)
def test_vips_fence_indexes_match_l1_scan(label, script, drops):
    """Fills, sibling re-fills, victims, fences and injected clean-line
    drops keep the shared and dirty-shared indexes equal to a full scan
    of every L1, checked between every op and after every drop."""
    from repro.validation import check_vips_l1
    machine, lines = _fence_fuzz_machine(label)
    protocol = machine.protocol
    per_thread = {t: [] for t in range(4)}
    for thread, kind, index, word in script:
        per_thread[thread].append((kind, lines[index] + 8 * word))

    def body(steps):
        def gen(ctx):
            for kind, addr in steps:
                if kind == "load":
                    yield ops.Load(addr)
                elif kind == "store":
                    yield ops.Store(addr, 1)
                else:
                    yield ops.Fence(ops.FenceKind.SELF_INVL
                                    if kind == "invl"
                                    else ops.FenceKind.SELF_DOWN)
                check_vips_l1(protocol)
        return gen

    def drop(core, selector):
        def fire():
            protocol.drop_clean_line(core, selector)
            check_vips_l1(protocol)
        return fire

    for cycle, selector in drops:
        machine.engine.schedule(cycle, drop(selector % 4, selector // 4),
                                daemon=True)
    machine.spawn([body(per_thread[t]) for t in range(4)])
    machine.run()
    check_vips_l1(protocol)


@pytest.mark.parametrize("label", ["BackOff-10", "CB-One"])
def test_sibling_refill_of_dirty_shared_line_clears_its_index(label):
    """Sibling threads miss on the same shared line at once: the second
    fill replaces the line's payload (dropping the first sibling's dirty
    word), so the line must leave the dirty-shared index."""
    from repro.validation import check_vips_l1
    machine, lines = _fence_fuzz_machine(label)
    protocol = machine.protocol
    addr = lines[0]

    def toucher(ctx):  # core 1: makes the page shared
        yield ops.Load(addr + 8)

    def writer(ctx):
        yield ops.Compute(200)
        yield ops.Store(addr, 7)

    def reader(ctx):
        yield ops.Compute(201)
        yield ops.Load(addr)

    machine.spawn([writer, reader, toucher])
    machine.run()
    line = protocol.addr_map.line_of(addr)
    assert machine.stats.l1_misses == 3  # two fills of one line at L1 0
    assert line in protocol._shared_lines[0]
    assert line not in protocol._dirty_shared[0]
    check_vips_l1(protocol)
