"""The callback directory: a tiny directory cache just for spin-waiting.

One instance per LLC bank, with ``cb_entries_per_bank`` fully-associative
entries (4 in Table 2; the paper reports no change up to 256). The
directory is *self-contained*: it is never backed by memory. Entries are
installed only by callback reads; a replacement simply answers every
pending callback of the victim with the current value (Section 2.3.1), so
no information ever needs to be preserved.

Word granularity: entries are keyed by word address, allowing independent
callbacks on different words of one line (Section 2.2).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.config import SystemConfig, WakePolicy
from repro.mem.cache import SetAssociativeCache
from repro.protocols.callback.entry import CBEntry, Waiter
from repro.protocols.table import TransitionTable
from repro.sim.stats import Stats


class CallbackDirectory:
    """Per-bank directory cache of :class:`CBEntry` records."""

    def __init__(self, config: SystemConfig, stats: Stats, bank: int,
                 entry_table: Optional[TransitionTable] = None) -> None:
        self.config = config
        self.stats = stats
        self.bank = bank
        #: Entry FSM executed by every resident CBEntry. Defaults to the
        #: registered callback table; the model-checker replay harness
        #: injects seeded-mutant tables here.
        self.entry_table = entry_table
        # Fully associative by default (cb_sets_per_bank == 1, the
        # paper's design); more sets model a cheaper, conflict-prone
        # organization. Keys are word addresses; the generic cache's
        # set index is key % sets.
        sets = config.cb_sets_per_bank
        self._cache = SetAssociativeCache(
            sets=sets, ways=config.cb_entries_per_bank // sets)
        self._rng = random.Random(config.seed * 1009 + bank)
        # Draws taken from _rng, and the capture digest of its state at
        # a given draw count: the state only moves in rng_next, so the
        # digest is recomputed only after a draw.
        self._draws = 0
        self._rng_digest: Tuple[int, str] = (-1, "")
        #: Telemetry probe bus (set when a Telemetry attaches), else None.
        self.obs = None

    def lookup(self, word: int) -> Optional[CBEntry]:
        """The entry for a word address, or None. Does not install."""
        cached = self._cache.lookup(word)
        return cached.payload if cached is not None else None

    def get_or_install(self, word: int) -> Tuple[CBEntry, List[Waiter]]:
        """The entry for ``word``, installing (and possibly evicting) if
        missing. Returns ``(entry, evicted_waiters)`` — the caller must
        answer the evicted waiters with the victim word's current value.
        """
        cached = self._cache.lookup(word)
        if cached is not None:
            return cached.payload, []
        entry = CBEntry(word, self.config.num_threads, table=self.entry_table)
        _inserted, victim = self._cache.insert(word, entry)
        self.stats.cb_installs += 1
        if self.obs is not None:
            self.obs.emit("cb.install", word=word, bank=self.bank)
        evicted: List[Waiter] = []
        if victim is not None:
            self.stats.cb_evictions += 1
            evicted = victim.payload.evict()
            self.stats.cb_eviction_wakeups += len(evicted)
            if self.obs is not None:
                self.obs.emit("cb.evict", word=victim.payload.word,
                              bank=self.bank, woken=len(evicted))
        return entry, evicted

    def victim_word(self, victim_entry: CBEntry) -> int:
        return victim_entry.word

    def force_evict(self, word: int) -> List[Waiter]:
        """Evict ``word``'s entry right now, as a fault injector would.

        This exercises the paper's Section 2.3.1 safety argument — "an
        entry can be evicted at any moment by answering all pending
        callbacks with the current value" — at an *arbitrary* cycle
        rather than only under capacity pressure. Returns the orphaned
        waiters; the caller must answer them with the word's current
        value. A miss is a no-op (returns ``[]``).
        """
        victim = self._cache.remove(word)
        if victim is None:
            return []
        self.stats.cb_evictions += 1
        self.stats.cb_forced_evictions += 1
        evicted = victim.payload.evict()
        self.stats.cb_eviction_wakeups += len(evicted)
        if self.obs is not None:
            self.obs.emit("cb.evict", word=word, bank=self.bank,
                          woken=len(evicted), forced=True)
        return evicted

    def rng_next(self, bound: int) -> int:
        self._draws += 1
        return self._rng.randrange(bound)

    def discard(self, word: int) -> List[Waiter]:
        """Drop ``word``'s entry WITHOUT answering its callbacks.

        No live protocol path does this — eviction always wakes
        (Section 2.3.1). The model-checker replay harness uses it to
        mirror a mutant table's emit-driven deallocation (``free`` on a
        write), so seeded-bad counterexamples reproduce bit-for-bit.
        Returns the orphaned waiters for the harness to account for.
        """
        victim = self._cache.remove(word)
        if victim is None:
            return []
        return list(victim.payload.waiters.values())

    # --------------------------------------------------------------- writes

    def on_write_all(self, word: int) -> List[Waiter]:
        entry = self.lookup(word)
        if entry is None:
            return []
        woken = entry.write_all(0)
        self.stats.cb_wakeups += len(woken)
        return woken

    def on_write_one(self, word: int) -> Optional[Waiter]:
        entry = self.lookup(word)
        if entry is None:
            return None
        waiter = entry.write_one(0, self.config.cb_wake_policy, self.rng_next)
        if waiter is not None:
            self.stats.cb_wakeups += 1
        return waiter

    def on_write_zero(self, word: int) -> None:
        entry = self.lookup(word)
        if entry is None:
            return
        entry.write_zero(0)

    # ---------------------------------------------------------------- reads

    def on_read_through(self, word: int, core: int) -> None:
        """ld_through consumes the F/E bit if an entry exists (Table 1),
        but never installs one."""
        entry = self.lookup(word)
        if entry is not None:
            entry.try_consume(core)

    def occupancy(self) -> int:
        return len(self._cache)

    def active_entries(self) -> int:
        """Entries with at least one pending callback right now."""
        return sum(1 for entry in self._cache
                   if entry.payload.has_callbacks())

    def parked_waiters(self) -> int:
        """Total callbacks pending across all resident entries."""
        return sum(len(entry.payload.waiters) for entry in self._cache)

    def note_activity(self) -> None:
        """Update the peak-active-entries gauge (called after a park)."""
        active = self.active_entries()
        if active > self.stats.cb_max_active_entries:
            self.stats.cb_max_active_entries = active

    def resident_words(self) -> List[int]:
        return self._cache.lines()

    def resident_entries(self) -> List[CBEntry]:
        """Resident entries in replacement order (oldest first), without
        touching recency — observation only."""
        return [line.payload for line in self._cache]

    def ckpt_state(self) -> dict:
        """Resident entries (replacement order preserved) plus a digest
        of the wake-policy RNG stream (checkpoint capture)."""
        draws, rng = self._rng_digest
        if draws != self._draws:
            import hashlib
            rng = hashlib.sha256(
                repr(self._rng.getstate()).encode()).hexdigest()[:16]
            self._rng_digest = (self._draws, rng)
        return {"bank": self.bank,
                "entries": self._cache.ckpt_state(
                    lambda entry: entry.ckpt_state()),
                "rng": rng}
