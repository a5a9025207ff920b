"""Failure classification shared by the orchestrator and the CLIs.

One taxonomy, used everywhere a run can fail: orchestrator job records
and event logs, campaign manifests, and process exit codes. The classes
are ordered by how actionable they are:

``invariant``
    A protocol invariant was violated (:class:`InvariantViolation`) —
    the simulated hardware itself is wrong. Most severe: data results
    cannot be trusted.
``liveness``
    The run stopped making progress — a deadlock (event queue drained
    with threads blocked) or a livelock (watchdog fired). Points at the
    synchronization encoding.
``timeout``
    The run exceeded its event or cycle budget
    (:class:`SimulationTimeout`) without being provably stuck.
``crash``
    The worker process died (e.g. a ``BrokenProcessPool``) — an
    infrastructure failure, not a simulation verdict.
``error``
    Any other exception.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

#: Failure kind -> process exit code for the resilience/orchestrate CLIs.
#: ``ok`` is 0; the rest are stable, documented, and distinct so CI can
#: branch on the *class* of failure without parsing logs.
FAILURE_EXIT_CODES: Mapping[str, int] = {
    "ok": 0,
    "error": 1,
    "invariant": 2,
    "liveness": 3,
    "timeout": 4,
    "crash": 5,
    "quarantined": 6,
    "mismatch": 7,   # fault campaign: run finished but final memory diverged
}

#: The order used when one exit code must summarize many failures:
#: most severe first.
_SEVERITY = ("invariant", "mismatch", "liveness", "crash", "timeout",
             "quarantined", "error")


def classify_failure(error: Optional[BaseException]) -> str:
    """Map an exception to its failure kind (``"ok"`` for ``None``)."""
    if error is None:
        return "ok"
    # Imports are local so this module stays importable from contexts
    # that have not (and should not) pull in the whole simulator.
    from repro.sim.engine import DeadlockError, LivenessError, \
        SimulationTimeout
    if isinstance(error, SimulationTimeout):
        return "timeout"
    if isinstance(error, (DeadlockError, LivenessError)):
        return "liveness"
    try:
        from repro.validation.checker import InvariantViolation
    except ImportError:  # pragma: no cover - defensive
        InvariantViolation = ()
    if InvariantViolation and isinstance(error, InvariantViolation):
        return "invariant"
    try:
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:  # pragma: no cover - defensive
        BrokenProcessPool = ()
    if BrokenProcessPool and isinstance(error, BrokenProcessPool):
        return "crash"
    if isinstance(error, TimeoutError):
        return "timeout"
    return "error"


def exit_code_for(kinds) -> int:
    """One exit code summarizing a set of failure kinds: 0 if all ok,
    else the code of the most severe kind present."""
    present = {k for k in kinds if k != "ok"}
    if not present:
        return 0
    for kind in _SEVERITY:
        if kind in present:
            return FAILURE_EXIT_CODES[kind]
    return FAILURE_EXIT_CODES["error"]


def capped_backoff(base_s: float, exponent: int,
                   cap_s: float = math.inf) -> float:
    """The exponential backoff curve every retry path shares:
    ``min(cap_s, base_s * 2 ** exponent)``. Callers clamp ``exponent``
    and add their own jitter (their RNG seeding differs)."""
    return min(cap_s, base_s * 2 ** exponent)
