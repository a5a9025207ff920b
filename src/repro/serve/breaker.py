"""Client-side circuit breaker: stop hammering a partitioned service.

A worker cut off from the service by a network partition (or a service
riding out a restart) otherwise turns every lease poll, heartbeat, and
commit into a fresh connection attempt — thousands of doomed syscalls
that slow the worker's own recovery and, on the service side, a
thundering herd the instant the partition heals. The breaker is the
classic three-state machine in front of
:meth:`repro.serve.client.ServeClient.request`:

* **closed** — requests flow; consecutive transport-level failures are
  counted, and a streak of ``threshold`` trips the breaker;
* **open** — requests fail *immediately* with :class:`CircuitOpenError`
  (an ``OSError``, so every caller that already handles connection
  trouble — the worker's lease backoff, the supervisor's scrape loop —
  handles an open breaker for free, without a new except arm);
* **half-open** — after ``cooldown_s`` one probe request is let
  through. Success closes the breaker; failure reopens it with the
  cooldown doubled (capped), so a long partition costs a few probes a
  minute instead of a retry storm.

What counts as a *failure* is deliberately transport-shaped: OSErrors
(connection refused/reset/timeout) and 5xx responses. 4xx responses —
quota refusals, stale-lease fences, unknown jobs — are the service
*answering*, which is proof the wire works, so they count as successes
for the breaker even though the caller sees an exception.

Determinism: the half-open probe schedule is pure arithmetic over
``cooldown_s`` and the failure count (no RNG), and the clock is
injectable (``now_fn``), so the state machine is unit-testable
tick-by-tick and chaos drills replay identically.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from repro.resilience.classify import capped_backoff

__all__ = ["CircuitBreaker", "CircuitOpenError",
           "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
           "BREAKER_STATES"]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"
BREAKER_STATES = (BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN)


class CircuitOpenError(OSError):
    """The breaker is open: the request was refused *locally*, without
    touching the wire. Subclasses ``OSError`` on purpose — callers
    treat it exactly like the connection failure it is standing in
    for."""

    def __init__(self, message: str, retry_in_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_in_s = retry_in_s


class CircuitBreaker:
    """Three-state breaker; thread-safe (one client is shared between a
    worker's main loop and its heartbeat thread)."""

    def __init__(self, threshold: int = 5, cooldown_s: float = 1.0,
                 cooldown_max_s: float = 30.0,
                 now_fn: Optional[Callable[[], float]] = None) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("breaker cooldown must be positive")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.cooldown_max_s = max(cooldown_s, cooldown_max_s)
        if now_fn is None:
            import time
            now_fn = time.monotonic
        self._now = now_fn
        self._lock = threading.Lock()
        self.state = BREAKER_CLOSED
        self._streak = 0          # consecutive failures while closed
        self._opened_at = 0.0
        self._open_count = 0      # trips since construction (monotonic)
        self._reopens = 0         # failed half-open probes on this trip
        self._probe_inflight = False
        #: Requests refused locally while open (monotonic).
        self.refusals = 0

    # ------------------------------------------------------------ gates

    def _current_cooldown(self) -> float:
        # Doubles per failed probe on this trip, capped.
        return capped_backoff(self.cooldown_s, self._reopens,
                              self.cooldown_max_s)

    def allow(self) -> None:
        """Gate one request. Raises :class:`CircuitOpenError` while
        open (and no probe is due); lets exactly one probe through per
        cooldown while half-open."""
        with self._lock:
            if self.state == BREAKER_CLOSED:
                return
            now = self._now()
            elapsed = now - self._opened_at
            cooldown = self._current_cooldown()
            if elapsed >= cooldown and not self._probe_inflight:
                self.state = BREAKER_HALF_OPEN
                self._probe_inflight = True
                return
            self.refusals += 1
            raise CircuitOpenError(
                f"circuit breaker open ({self._streak} consecutive "
                f"failures); next probe in "
                f"{max(0.0, cooldown - elapsed):.2f}s",
                retry_in_s=max(0.0, cooldown - elapsed))

    def record_success(self) -> None:
        """The wire answered (any parseable response, even an error
        status below 500): close and reset."""
        with self._lock:
            self.state = BREAKER_CLOSED
            self._streak = 0
            self._reopens = 0
            self._probe_inflight = False

    def record_failure(self) -> None:
        """A transport-level failure (OSError or 5xx)."""
        with self._lock:
            self._streak += 1
            if self.state == BREAKER_HALF_OPEN:
                # The probe failed: reopen, with a longer cooldown.
                self.state = BREAKER_OPEN
                self._reopens += 1
                self._opened_at = self._now()
                self._probe_inflight = False
                return
            if self.state == BREAKER_CLOSED and \
                    self._streak >= self.threshold:
                self.state = BREAKER_OPEN
                self._open_count += 1
                self._reopens = 0
                self._opened_at = self._now()

    # ------------------------------------------------------- introspection

    def snapshot(self) -> Dict[str, float]:
        """State document for logs, pidfile metadata, and the fleet
        snapshot ``/metrics`` renders."""
        with self._lock:
            return {"state": self.state, "streak": self._streak,
                    "trips": self._open_count, "reopens": self._reopens,
                    "refusals": self.refusals,
                    "cooldown_s": self._current_cooldown()}
