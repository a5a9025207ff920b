"""Discrete-event simulation engine.

The engine owns a monotonic cycle clock and an event heap. Every other
component (cores, cache controllers, the network) schedules callbacks on
the engine rather than keeping time itself, which gives one global,
deterministic ordering of all activity in the simulated machine.

Determinism matters for reproducibility of the paper's experiments: two
events scheduled for the same cycle fire in the order they were scheduled
(FIFO tie-breaking via a monotonically increasing sequence number).

Telemetry hooks (repro.obs) ride on two engine features that are inert
unless used:

* **daemon events** (``schedule(..., daemon=True)``) fire like normal
  events but do not keep the simulation alive: :meth:`run` stops once
  only daemon events remain, and the clock never advances past the last
  live event. The time-series sampler uses these for its cycle-window
  ticks, which is what keeps sampled runs bit-identical to unsampled
  ones.
* an optional **step hook** (:attr:`profile_hook`) that, when set, is
  handed each popped callback instead of the engine calling it directly;
  the wall-clock profiler uses it to attribute host time by component.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Optional


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class DeadlockError(SimulationError):
    """Raised when the event queue drains while threads are still blocked.

    When the machine built a structured post-mortem (see
    :mod:`repro.resilience.watchdog`), it is attached as ``diagnosis``.
    """

    def __init__(self, message: str, diagnosis: Optional[Any] = None) -> None:
        super().__init__(message)
        self.diagnosis = diagnosis


class LivenessError(SimulationError):
    """Raised when events keep firing but no thread makes forward progress
    (a livelock — e.g. spinning forever on a value nobody will write).

    Raised by the :class:`~repro.resilience.watchdog.LivenessWatchdog`
    *at the cycle the no-progress window closes*, with its structured
    ``diagnosis`` attached."""

    def __init__(self, message: str, diagnosis: Optional[Any] = None) -> None:
        super().__init__(message)
        self.diagnosis = diagnosis


class SimulationTimeout(SimulationError):
    """A run exceeded its event or cycle budget (watchdog deadline).

    Structured: carries which budget tripped (``reason`` is
    ``"max_events"`` or ``"max_cycles"``), the final ``cycle``, the
    number of ``events`` executed, and — when the machine filled it in —
    ``progress``, a per-core map of retired-op counts, so a timeout
    report can say *which* cores were still moving."""

    def __init__(self, message: str, reason: str = "max_events",
                 cycle: int = 0, events: int = 0,
                 progress: Optional[Dict[int, int]] = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.cycle = cycle
        self.events = events
        self.progress: Dict[int, int] = progress or {}

    def __reduce__(self):  # keep the structure across process boundaries
        return (_rebuild_timeout, (self.args[0], self.reason, self.cycle,
                                   self.events, self.progress))


def _rebuild_timeout(message: str, reason: str, cycle: int, events: int,
                     progress: Dict[int, int]) -> "SimulationTimeout":
    return SimulationTimeout(message, reason=reason, cycle=cycle,
                             events=events, progress=progress)


def _callback_name(callback: Callable[[], None]) -> str:
    """A stable, process-independent label for a queued callback.

    Qualified names identify the code the event will run (e.g.
    ``Core.start.<locals>.<lambda>``) without depending on object ids,
    so two processes that replayed the same history produce the same
    label sequence.
    """
    qualname = getattr(callback, "__qualname__", None)
    if qualname is not None:
        return qualname
    func = getattr(callback, "func", None)  # functools.partial
    if func is not None:
        return f"partial:{_callback_name(func)}"
    return type(callback).__name__


class Engine:
    """A minimal deterministic discrete-event scheduler.

    Events are ``(time, seq, callback, daemon)`` tuples in a binary heap.
    ``seq`` breaks ties so that same-cycle events run in scheduling order,
    making runs bit-reproducible regardless of callback identity.
    """

    def __init__(self) -> None:
        self._queue: list = []
        self._seq = 0
        self.now = 0
        self._running = False
        self._live = 0
        #: When set, :meth:`step` calls ``profile_hook(callback)`` instead
        #: of ``callback()`` — the hook must invoke the callback exactly
        #: once (see repro.obs.profiler).
        self.profile_hook: Optional[Callable[[Callable[[], None]], None]] = None

    def schedule(self, delay: int, callback: Callable[[], None],
                 daemon: bool = False) -> None:
        """Run ``callback`` ``delay`` cycles from the current time.

        ``delay`` must be non-negative; a zero delay runs the callback later
        in the same cycle (after already-queued same-cycle events).
        ``daemon`` events observe the simulation without keeping it alive.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._queue, (self.now + delay, self._seq, callback,
                                     daemon))
        self._seq += 1
        if not daemon:
            self._live += 1

    def schedule_at(self, time: int, callback: Callable[[], None],
                    daemon: bool = False) -> None:
        """Run ``callback`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        heapq.heappush(self._queue, (time, self._seq, callback, daemon))
        self._seq += 1
        if not daemon:
            self._live += 1

    @property
    def pending(self) -> int:
        """Number of events still queued (daemon events included)."""
        return len(self._queue)

    def next_time(self) -> Optional[int]:
        """Cycle of the earliest queued event (daemon or live), or None."""
        return self._queue[0][0] if self._queue else None

    def ckpt_state(self) -> Dict[str, Any]:
        """Deterministic view of the scheduler state for checkpoint
        fingerprints (see :mod:`repro.ckpt.state`).

        Only *live* events are listed: daemon observers (telemetry ticks,
        watchdog checks, audit timers) may or may not be attached on a
        restore, and the repo-wide contract is that they never change
        results. Events are listed in execution order — ``(time, seq)``
        — but the raw sequence numbers are omitted, because interleaved
        daemon scheduling shifts them without changing the order of the
        live events themselves.
        """
        live = [[time, _callback_name(callback)]
                for time, _seq, callback, daemon in sorted(self._queue)
                if not daemon]
        return {"now": self.now, "live_pending": self._live, "queue": live}

    @property
    def live_pending(self) -> int:
        """Number of non-daemon events still queued."""
        return self._live

    def step(self) -> bool:
        """Run the single next event. Returns False if the queue is empty."""
        if not self._queue:
            return False
        time, _seq, callback, daemon = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError("event heap corrupted: time moved backwards")
        self.now = time
        if not daemon:
            self._live -= 1
        hook = self.profile_hook
        if hook is None:
            callback()
        else:
            hook(callback)
        return True

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None,
            max_cycles: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when no *live* (non-daemon) events remain or when the clock
        would pass ``until``. Two watchdog budgets abort runaway runs with
        a structured :class:`SimulationTimeout`:

        * ``max_events`` bounds the number of executed events (daemon
          events included) — a guard against livelocked spin loops;
        * ``max_cycles`` is a deadline on the *simulated clock*: the run
          aborts before executing any event past that cycle, so a hung
          workload fails at a predictable point in simulated time
          regardless of how many events per cycle it churns.

        Trailing daemon events — e.g. a sampler tick beyond the last real
        event — are left unexecuted so the clock ends at the last live
        event. Returns the number of events executed.
        """
        executed = 0
        self._running = True
        try:
            while self._live > 0:
                if until is not None and self._queue[0][0] > until:
                    break
                if max_cycles is not None and self._queue[0][0] > max_cycles:
                    raise SimulationTimeout(
                        f"watchdog: simulated clock would pass the "
                        f"{max_cycles}-cycle deadline at cycle {self.now} "
                        f"({executed} events executed)",
                        reason="max_cycles", cycle=self.now, events=executed,
                    )
                if max_events is not None and executed >= max_events:
                    raise SimulationTimeout(
                        f"watchdog: exceeded {max_events} events at cycle "
                        f"{self.now}",
                        reason="max_events", cycle=self.now, events=executed,
                    )
                self.step()
                executed += 1
        finally:
            self._running = False
        return executed
