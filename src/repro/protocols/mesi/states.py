"""MESI protocol state containers.

``L1Line`` is the payload stored in the per-core L1 tag array: the MESI
state plus a word-value snapshot taken when the line was filled (and
updated by local writes). Spinning cores read from the snapshot, so they
observe stale values until an invalidation arrives — exactly the local
spin-on-cached-copy behaviour the paper contrasts with self-invalidation.

``DirEntry`` is the home-bank directory record: the owner (E/M holder),
the sharer set, and the per-line transaction serialization (``busy`` +
FIFO of deferred request thunks). The directory is the per-line point of
serialization, as in any MESI implementation.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Mapping, Optional, Set

from repro.protocols.mesi.table import MESI_L1_TABLE
from repro.protocols.table import Event


class MESIState(enum.Enum):
    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"


class L1Line:
    """Per-line L1 payload: MESI state + word-value snapshot."""

    __slots__ = ("state", "snapshot")

    def __init__(self, state: MESIState, snapshot: Dict[int, int]) -> None:
        self.state = state
        # word address (aligned) -> value observed at fill time
        self.snapshot = snapshot

    @property
    def dirty(self) -> bool:
        return self.state is MESIState.MODIFIED

    def read_word(self, word_addr: int) -> int:
        return self.snapshot.get(word_addr, 0)

    def write_word(self, word_addr: int, value: int) -> None:
        self.snapshot[word_addr] = value

    def transition(self, kind: str) -> None:
        """Advance the line via the declarative L1 table (``store``
        upgrade, ``fwd_gets`` downgrade, ``inv``). The table is the
        single source of truth the model checker explores."""
        result = MESI_L1_TABLE.step({"mesi": self.state.value}, Event(kind))
        self.state = MESIState(result.state["mesi"])

    def ckpt_state(self) -> Dict[str, object]:
        """MESI state + fill-time value snapshot (checkpoint capture)."""
        return {"state": self.state.value,
                "snapshot": {str(word): value
                             for word, value in self.snapshot.items()}}


class DirEntry:
    """Directory record for one line at its home LLC bank."""

    __slots__ = ("owner", "sharers", "busy", "queue")

    def __init__(self) -> None:
        self.owner: Optional[int] = None   # E/M holder
        self.sharers: Set[int] = set()
        self.busy = False
        self.queue: List[Callable[[], None]] = []

    @property
    def state(self) -> str:
        if self.owner is not None:
            return "EM"
        if self.sharers:
            return "S"
        return "I"

    def view(self) -> Dict[str, Any]:
        """The directory-table state for this record (the stable part;
        ``busy``/``queue`` are serialization plumbing the table never
        sees — it only receives requests that won arbitration)."""
        return {"owner": self.owner, "sharers": frozenset(self.sharers)}

    def adopt(self, state: Mapping[str, Any]) -> None:
        """Install a directory-table next-state."""
        self.owner = state["owner"]
        self.sharers.clear()
        self.sharers.update(state["sharers"])

    def ckpt_state(self) -> Dict[str, object]:
        """Owner/sharers/serialization point (checkpoint capture). The
        deferred-request thunks are closures; their *count* is state
        (how many transactions are queued behind the busy line), their
        identity is pinned by the engine's live-event digest."""
        return {"owner": self.owner, "sharers": sorted(self.sharers),
                "busy": self.busy, "queued": len(self.queue)}
