"""Generic set-associative cache tag array with true-LRU replacement.

Used by the L1 models (both MESI and VIPS flavors) and — with a single
fully-associative set — by the callback directory. The cache stores
arbitrary per-line payload objects supplied by the owning controller; the
payload is where protocol state (MESI state, dirty word masks, value
snapshots, F/E+CB bit vectors) lives.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple


class CacheLine:
    """One resident line: its line number plus protocol payload."""

    __slots__ = ("line", "payload")

    def __init__(self, line: int, payload: Any) -> None:
        self.line = line
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheLine(line={self.line:#x}, payload={self.payload!r})"


#: Supported replacement policies.
POLICIES = ("lru", "fifo", "random")


class SetAssociativeCache:
    """Tag array: ``sets`` sets of ``ways`` lines each.

    Keys are *line numbers* (byte address // line size); the caller does
    that conversion. ``sets == 1`` gives a fully-associative structure.

    Replacement policy (per set):

    * ``lru`` (default) — true LRU: lookups refresh recency;
    * ``fifo`` — eviction in fill order, lookups don't refresh;
    * ``random`` — uniform victim via the supplied ``rng`` (or a
      deterministic seed-0 generator).
    """

    def __init__(self, sets: int, ways: int, policy: str = "lru",
                 rng=None) -> None:
        if sets < 1 or ways < 1:
            raise ValueError("cache needs at least one set and one way")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; "
                             f"choose from {POLICIES}")
        self.sets = sets
        self.ways = ways
        self.policy = policy
        if policy == "random":
            import random as _random
            self._rng = rng if rng is not None else _random.Random(0)
        else:
            self._rng = None
        # Each set is an OrderedDict line -> CacheLine; order = recency
        # (LRU) or fill (FIFO) order, oldest first.
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(sets)
        ]

    def _set_for(self, line: int) -> "OrderedDict[int, CacheLine]":
        return self._sets[line % self.sets]

    def lookup(self, line: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line or None. ``touch`` updates recency
        (LRU policy only)."""
        bucket = self._set_for(line)
        entry = bucket.get(line)
        if entry is not None and touch and self.policy == "lru":
            bucket.move_to_end(line)
        return entry

    def contains(self, line: int) -> bool:
        return line in self._set_for(line)

    def insert(
        self, line: int, payload: Any
    ) -> Tuple[CacheLine, Optional[CacheLine]]:
        """Insert a line, evicting LRU if the set is full.

        Returns ``(inserted, victim)`` where victim is the evicted
        :class:`CacheLine` or None. Inserting an already-resident line
        replaces its payload and refreshes LRU (no eviction).
        """
        bucket = self._set_for(line)
        existing = bucket.get(line)
        if existing is not None:
            existing.payload = payload
            if self.policy == "lru":
                bucket.move_to_end(line)
            return existing, None
        victim = None
        if len(bucket) >= self.ways:
            victim_line = self._victim_line(bucket)
            victim = bucket.pop(victim_line)
        entry = CacheLine(line, payload)
        bucket[line] = entry
        return entry, victim

    def _victim_line(self, bucket: "OrderedDict[int, CacheLine]") -> int:
        if self.policy == "random":
            return self._rng.choice(list(bucket))
        return next(iter(bucket))  # oldest: LRU or FIFO order

    def choose_victim(self, line: int) -> Optional[CacheLine]:
        """The line that *would* be evicted to make room for ``line``
        (random policy: an arbitrary resident line, not a prediction)."""
        bucket = self._set_for(line)
        if line in bucket or len(bucket) < self.ways:
            return None
        if self.policy == "random":
            return next(iter(bucket.values()))
        return bucket[self._victim_line(bucket)]

    def remove(self, line: int) -> Optional[CacheLine]:
        bucket = self._set_for(line)
        entry = bucket.pop(line, None)
        return entry

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def __iter__(self) -> Iterator[CacheLine]:
        for bucket in self._sets:
            yield from bucket.values()

    def lines(self) -> List[int]:
        return [entry.line for entry in self]

    def entries_of_sets(self, lines: Iterable[int]) -> List[CacheLine]:
        """Entries of the sets ``lines`` map to, in full-iteration order."""
        indexes = sorted({line % self.sets for line in lines})
        return [entry for index in indexes
                for entry in self._sets[index].values()]

    def ckpt_state(self, payload_state: Callable[[Any], Any]) -> List[list]:
        """Per-set resident lines in replacement order (oldest first),
        each as ``[line, payload_state(payload)]`` — the tag-array half
        of a checkpoint fingerprint. Replacement order is part of the
        state: it decides future victims, so two caches that differ only
        in recency are *not* interchangeable. ``random``-policy caches
        additionally pin their RNG stream."""
        state: List[list] = [
            [[entry.line, payload_state(entry.payload)]
             for entry in bucket.values()]
            for bucket in self._sets
        ]
        if self._rng is not None:
            import hashlib
            digest = hashlib.sha256(
                repr(self._rng.getstate()).encode()).hexdigest()
            return [state, digest[:16]]
        return [state]

    def evict_matching(
        self, predicate: Callable[[CacheLine], bool]
    ) -> List[CacheLine]:
        """Remove and return every resident line satisfying ``predicate``.

        Used for bulk self-invalidation: evict all shared lines at an
        acquire fence.
        """
        removed: List[CacheLine] = []
        for bucket in self._sets:
            doomed = [line for line, entry in bucket.items() if predicate(entry)]
            for line in doomed:
                removed.append(bucket.pop(line))
        return removed
