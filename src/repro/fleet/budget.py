"""Restart budgets: when (and whether) a crashed worker comes back.

A supervisor that blindly respawns a crashing worker converts one bug
into a fork bomb; one that gives up after a fixed count converts every
transient blip into a smaller fleet. The budget splits the difference
with three independent brakes:

* **per-slot jittered-exponential backoff** — restart ``i`` of a slot
  waits ``base * 2^min(i, limit)`` scaled by a jitter drawn from a
  ``random.Random(crc32(slot) ^ seed)`` stream indexed by the restart
  count. Same discipline as the worker's ``_backoff_rng``: the
  schedule is a pure function of (slot name, seed, restart ordinal),
  so a supervisor that is SIGKILLed and resumes from its journal
  replays **byte-identical** delays — chaos drills stay deterministic
  across supervisor generations;
* **fleet-wide rate limit** — a token bucket over restarts per window,
  so even many *distinct* slots crashing (a bad deploy, a dead server)
  cannot stampede;
* **windowed quarantine** — a slot that crashes ``flap_threshold``
  times within ``flap_window_s`` is flapping, not unlucky: it is
  permanently quarantined with a taxonomy-aware reason (the dominant
  failure kind among its recent crashes, derived from exit codes via
  the shared :mod:`repro.resilience.classify` vocabulary) and never
  respawned until an operator clears it.

Everything here is pure decision logic over an injectable clock —
no processes, no sleeps — so the math is unit-testable tick by tick
and the supervisor's journal replay can reconstruct exact state.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.resilience.classify import FAILURE_EXIT_CODES, capped_backoff

__all__ = ["RestartBudget", "RestartDecision", "SlotBudget",
           "QUARANTINED", "kind_of_exit"]

#: Sentinel state for a permanently benched slot.
QUARANTINED = "quarantined"

#: Exit code → failure kind, inverted from the taxonomy's kind → exit
#: code map, plus the signal-death conventions the taxonomy does not
#: cover (a Popen returncode of -N means "killed by signal N"; shells
#: report the same death as 128+N).
_EXIT_KINDS: Dict[int, str] = {code: kind
                               for kind, code in FAILURE_EXIT_CODES.items()}


def kind_of_exit(returncode: Optional[int]) -> str:
    """Classify a dead worker's returncode with the shared taxonomy.

    Signal deaths (SIGKILL'd kamikazes, OOM kills, operator kills) are
    ``crash``; taxonomy exit codes map straight back to their kind; a
    clean 0 is ``ok``; anything else is a generic ``error``.
    """
    if returncode is None:
        return "error"
    if returncode == 0:
        return "ok"
    if returncode < 0 or returncode > 128:
        return "crash"
    return _EXIT_KINDS.get(returncode, "error")


@dataclass
class RestartDecision:
    """What the supervisor should do about one dead slot."""

    action: str                     # "restart" | "wait" | "quarantine"
    delay_s: float = 0.0            # for "wait": seconds until eligible
    reason: str = ""


@dataclass
class SlotBudget:
    """One slot's restart history (journaled and replayed)."""

    slot: str
    restarts: int = 0               # lifetime restart ordinal
    crash_times: List[float] = field(default_factory=list)
    crash_kinds: Counter = field(default_factory=Counter)
    quarantined: bool = False
    quarantine_reason: str = ""
    next_eligible_t: float = 0.0    # wall clock gate for the next spawn

    def snapshot(self) -> Dict[str, Any]:
        return {"slot": self.slot, "restarts": self.restarts,
                "quarantined": self.quarantined,
                "quarantine_reason": self.quarantine_reason,
                "crash_kinds": dict(self.crash_kinds),
                "next_eligible_t": self.next_eligible_t}


class RestartBudget:
    """The fleet's restart policy. Pure: feed it crashes and a clock,
    read back decisions."""

    def __init__(self, seed: int = 0,
                 backoff_base_s: float = 0.25,
                 backoff_max_s: float = 30.0,
                 flap_threshold: int = 5,
                 flap_window_s: float = 60.0,
                 fleet_rate: int = 10,
                 fleet_window_s: float = 10.0) -> None:
        if flap_threshold < 1:
            raise ValueError("flap_threshold must be >= 1")
        if fleet_rate < 1:
            raise ValueError("fleet_rate must be >= 1")
        self.seed = seed
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.flap_threshold = flap_threshold
        self.flap_window_s = flap_window_s
        #: Fleet-wide brake: at most ``fleet_rate`` restarts per
        #: ``fleet_window_s`` sliding window, across all slots.
        self.fleet_rate = fleet_rate
        self.fleet_window_s = fleet_window_s
        self.slots: Dict[str, SlotBudget] = {}
        self._fleet_restarts: List[float] = []

    # ------------------------------------------------------------ schedule

    def backoff_s(self, slot: str, restart_ordinal: int) -> float:
        """The delay before restart ``restart_ordinal`` (1-based) of
        ``slot``. Deterministic: a fresh RestartBudget with the same
        seed produces the identical schedule, which is what lets a
        resumed supervisor pick up a half-served backoff mid-wait."""
        if restart_ordinal < 1:
            return 0.0
        base = capped_backoff(self.backoff_base_s,
                              min(restart_ordinal - 1, 10),
                              self.backoff_max_s)
        # One RNG stream per slot, fast-forwarded to the ordinal: draw
        # i is the jitter for restart i regardless of when (or in which
        # supervisor life) it is asked for.
        rng = random.Random(zlib.crc32(slot.encode()) ^ self.seed)
        jitter = 0.5
        for _ in range(restart_ordinal):
            jitter = rng.random()
        return base * (0.5 + 0.5 * jitter)

    # ------------------------------------------------------------- intake

    def slot_budget(self, slot: str) -> SlotBudget:
        budget = self.slots.get(slot)
        if budget is None:
            budget = self.slots[slot] = SlotBudget(slot=slot)
        return budget

    def note_crash(self, slot: str, now: float,
                   returncode: Optional[int] = None,
                   kind: Optional[str] = None) -> SlotBudget:
        """Account one worker death; computes the slot's next-eligible
        time and flips it to quarantined when it crosses the flap
        threshold. Idempotent replay: the journal records (slot, t,
        kind), and replaying the same sequence rebuilds the same state.
        """
        budget = self.slot_budget(slot)
        kind = kind or kind_of_exit(returncode)
        budget.crash_times.append(now)
        budget.crash_kinds[kind] += 1
        budget.restarts += 1
        budget.next_eligible_t = now + self.backoff_s(slot, budget.restarts)
        self._trim(budget, now)
        recent = [t for t in budget.crash_times
                  if t > now - self.flap_window_s]
        if len(recent) >= self.flap_threshold and not budget.quarantined:
            budget.quarantined = True
            dominant = budget.crash_kinds.most_common(1)[0][0]
            budget.quarantine_reason = (
                f"{len(recent)} crashes in {self.flap_window_s:.0f}s "
                f"(dominant kind: {dominant})")
        return budget

    def _trim(self, budget: SlotBudget, now: float) -> None:
        horizon = now - max(self.flap_window_s, self.fleet_window_s) * 2
        budget.crash_times = [t for t in budget.crash_times if t > horizon]

    # ----------------------------------------------------------- decisions

    def fleet_tokens_left(self, now: float) -> int:
        self._fleet_restarts = [t for t in self._fleet_restarts
                                if t > now - self.fleet_window_s]
        return max(0, self.fleet_rate - len(self._fleet_restarts))

    def decide(self, slot: str, now: float) -> RestartDecision:
        """May ``slot`` be respawned right now?"""
        budget = self.slot_budget(slot)
        if budget.quarantined:
            return RestartDecision(
                action="quarantine",
                reason=budget.quarantine_reason or "quarantined")
        if now < budget.next_eligible_t:
            return RestartDecision(
                action="wait", delay_s=budget.next_eligible_t - now,
                reason=f"backoff after {budget.restarts} restart(s)")
        if self.fleet_tokens_left(now) <= 0:
            oldest = min(self._fleet_restarts)
            return RestartDecision(
                action="wait",
                delay_s=max(0.05,
                            oldest + self.fleet_window_s - now),
                reason=f"fleet rate limit ({self.fleet_rate} restarts "
                       f"per {self.fleet_window_s:.0f}s)")
        return RestartDecision(action="restart")

    def note_restart(self, slot: str, now: float) -> None:
        """Consume one fleet token (called when a spawn actually
        happens, not when one is merely allowed)."""
        self._fleet_restarts.append(now)

    def clear_quarantine(self, slot: str) -> None:
        budget = self.slot_budget(slot)
        budget.quarantined = False
        budget.quarantine_reason = ""
        budget.crash_times = []
        budget.next_eligible_t = 0.0

    # --------------------------------------------------------------- views

    @property
    def quarantined(self) -> List[str]:
        return sorted(s for s, b in self.slots.items() if b.quarantined)

    def snapshot(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "quarantined": self.quarantined,
                "slots": {s: b.snapshot()
                          for s, b in sorted(self.slots.items())}}
