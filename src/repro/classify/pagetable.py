"""First-touch private/shared page classification (VIPS-M style).

VIPS-M excludes private data from coherence: a page is *private* to the
first core that touches it until a second core accesses it, at which point
it becomes *shared* (and stays shared). Private lines in the L1 are not
self-invalidated at acquire fences and need no write-through at release —
this is the mechanism that lets self-invalidation protocols keep most of
their cache contents across synchronization.

We model the classification table directly (no TLB/OS trap timing; the
paper's VIPS-M charges a one-off cost on transitions that is negligible at
the granularity of our experiments).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.mem.layout import AddressMap


class PageClassifier:
    """Tracks, per page, whether it is private (and to whom) or shared."""

    def __init__(self, addr_map: AddressMap) -> None:
        self._addr_map = addr_map
        # page -> owning core id, or -1 once shared
        self._owner: Dict[int, int] = {}
        self.transitions_to_shared = 0

    SHARED = -1

    def touch(self, addr: int, core: int) -> bool:
        """Record an access; returns True if the page is (now) shared."""
        page = self._addr_map.page_of(addr)
        owner = self._owner.get(page)
        if owner is None:
            self._owner[page] = core
            return False
        if owner == self.SHARED:
            return True
        if owner != core:
            self._owner[page] = self.SHARED
            self.transitions_to_shared += 1
            return True
        return False

    def is_shared(self, addr: int) -> bool:
        return self._owner.get(self._addr_map.page_of(addr)) == self.SHARED

    def is_private_to(self, addr: int, core: int) -> bool:
        return self._owner.get(self._addr_map.page_of(addr)) == core

    def owner_of(self, addr: int) -> Optional[int]:
        """The owning core id, ``SHARED`` (-1), or None if untouched."""
        return self._owner.get(self._addr_map.page_of(addr))

    def ckpt_state(self) -> Dict[str, object]:
        """Classification table as canonical data (checkpoint capture)."""
        return {"owner": {str(page): owner
                          for page, owner in self._owner.items()},
                "transitions": self.transitions_to_shared}

    def force_shared(self, addr: int) -> None:
        """Pre-classify a page as shared (used for synchronization vars)."""
        self._owner[self._addr_map.page_of(addr)] = self.SHARED
