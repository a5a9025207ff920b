"""Span tracing from outside the program: wrappers around layer entry points.

A :class:`Tracer` keeps one span stack for one thread. :meth:`Tracer.wrap`
returns a stand-in for a callable that opens a span around every call.
The self time of a span is its duration minus the time covered by its
child spans, so the self times of all spans under a root add up to the
root's duration. Nothing inside ``src/`` is changed: the wrappers are
installed on instances (or module attributes) by :mod:`perfbench.layers`
and removed again when the traced run ends.

The simulator layers make millions of calls per cell, so spans are
aggregated per key (calls, total and self seconds) as they close. Keys
named in ``keep`` also record every span ``(key, start, end, self,
parent, job)`` in memory; :meth:`Tracer.write` dumps both at the end of
the run.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional


# A stack frame is a list ``[start, child_s]`` (hot wrappers) or
# ``[start, child_s, key, span_id]`` (spans opened by :meth:`Tracer.span`);
# lists keep the per-call cost of the hot wrappers low.
_CHILD, _SID = 1, 3


class Tracer:
    """Aggregating span recorder for one thread (see module docstring)."""

    def __init__(self, keep: Iterable[str] = ()) -> None:
        self.keep = frozenset(keep)
        #: key -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: Recorded spans for keys in ``keep``.
        self.spans: List[tuple] = []
        #: The current job id stamped on recorded spans.
        self.job = ""
        self._stack: List[list] = []
        self._next_sid = 0

    def _slot(self, key: str) -> List[float]:
        slot = self.stats.get(key)
        if slot is None:
            slot = self.stats[key] = [0, 0.0, 0.0]
        return slot

    def wrap(self, key: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``key`` around every call."""
        if key in self.keep:
            return self._wrap_kept(key, fn)
        stack = self._stack
        slot = self._slot(key)
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def dispatcher(self, key_of: Callable[[Callable], str]) -> Callable:
        """An ``Engine.profile_hook``: each dispatched callback runs in a
        span named ``key_of(callback)``."""
        stack = self._stack
        clock = time.perf_counter
        slots: Dict[str, List[float]] = {}

        def hook(callback: Callable[[], None]) -> None:
            key = key_of(callback)
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = self._slot(key)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                callback()
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return hook

    def _wrap_kept(self, key: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(key):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def span(self, key: str) -> "_SpanContext":
        """A context manager opening a span named ``key``."""
        return _SpanContext(self, key)

    def _open(self, key: str) -> list:
        self._next_sid += 1
        frame = [time.perf_counter(), 0.0, key, self._next_sid]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = time.perf_counter()
        start, child, key, sid = frame
        elapsed = end - start
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {key!r} closed out of order")
        stack.pop()
        slot = self._slot(key)
        slot[0] += 1
        slot[1] += elapsed
        slot[2] += elapsed - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[_CHILD] += elapsed
        if key in self.keep:
            # Only frames opened by span() carry an id; a hot-wrapper
            # parent records as 0.
            parent_sid = parent[_SID] if parent and len(parent) > 2 else 0
            self.spans.append((key, start, end, elapsed - child,
                               parent_sid, self.job, sid))
        return elapsed

    # ------------------------------------------------------------ queries

    def calls(self, key: str) -> int:
        return int(self.stats.get(key, (0, 0.0, 0.0))[0])

    def total_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[1]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[2]

    def durations(self, key: str) -> List[float]:
        """Durations of the recorded spans named ``key`` (``keep`` only)."""
        return [end - start for name, start, end, *_ in self.spans
                if name == key]

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def write(self, path: str, meta: Optional[Dict[str, Any]] = None) -> None:
        """Dump the aggregates and the recorded spans as JSON."""
        doc = {
            "meta": meta or {},
            "aggregate": {key: {"calls": int(calls), "total_s": total,
                                "self_s": own}
                          for key, (calls, total, own)
                          in sorted(self.stats.items())},
            "spans": [{"name": name, "start": start, "end": end,
                       "self_s": own, "parent": parent, "job": job,
                       "id": sid}
                      for name, start, end, own, parent, job, sid
                      in self.spans],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


class _SpanContext:
    __slots__ = ("tracer", "key", "frame", "elapsed")

    def __init__(self, tracer: Tracer, key: str) -> None:
        self.tracer = tracer
        self.key = key
        self.frame: Optional[list] = None
        self.elapsed = 0.0

    def __enter__(self) -> "_SpanContext":
        self.frame = self.tracer._open(self.key)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.elapsed = self.tracer._close(self.frame)
