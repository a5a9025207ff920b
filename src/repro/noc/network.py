"""Network timing + traffic accounting over the mesh.

``Network.send`` computes the delivery latency of one message and
schedules its handler on the engine; it also books the message's traffic
(flit-hops, byte-hops, per-kind counts) on the stats object. Local
deliveries (same tile) cost one cycle and zero traffic — the L1 talking to
its co-located LLC bank still crosses the cache hierarchy but not the
network, matching how GEMS/GARNET accounts local bank hits.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.config import SystemConfig
from repro.noc.mesh import hop_table, make_topology
from repro.noc.messages import MsgKind, message_bytes
from repro.sim.engine import Engine
from repro.sim.stats import Stats

LOCAL_DELIVERY_LATENCY = 1


def _drop_duplicate() -> None:
    """Delivery of a fault-injected duplicate message: dropped on arrival."""


class Network:
    """Latency/traffic model of the 2-D mesh interconnect.

    With ``config.model_link_contention`` enabled, each directed link
    tracks its occupancy: a message claims every link on its X-Y route
    for ``flits`` cycles in sequence, waiting behind earlier traffic.
    Without it, delivery time is the uncontended head latency plus
    serialization (the default — hop/flit counting, as in DESIGN.md).
    """

    def __init__(self, config: SystemConfig, engine: Engine, stats: Stats) -> None:
        self.config = config
        self.engine = engine
        self.stats = stats
        self.mesh = make_topology(config.topology,
                                  config.mesh_side)
        # Flat src * n + dst hop counts, shared per (topology, side).
        self._hops = hop_table(config.topology, config.mesh_side)
        # MsgKind -> (counter name, wire bytes, flits), constant per config.
        self._wire = {}
        for kind in MsgKind:
            size = message_bytes(kind, config.line_bytes, config.word_bytes,
                                 config.header_bytes)
            self._wire[kind] = (kind.value, size, config.flits_for(size))
        # (src_tile, dst_tile) directed link -> busy-until cycle.
        self._link_busy: dict = {}
        #: Telemetry probe bus (set when a Telemetry attaches), else None.
        self.obs = None
        #: When telemetry is attached, delivery handlers are wrapped to
        #: maintain the flits-in-flight gauge. The wrapping changes only
        #: handler identity, never (time, seq) ordering.
        self.track_inflight = False
        self.inflight_flits = 0
        #: Fault-injection hook (repro.resilience): when set, called as
        #: ``hook(src, dst, kind, latency) -> (extra_latency, duplicates)``
        #: for every message. ``extra_latency`` delays delivery (a slow
        #: NoC path); ``duplicates`` re-sends the message's flits that
        #: many times — the payload handler still runs exactly once (the
        #: receiver drops duplicates), but the copies are charged as
        #: traffic. Left None (the default), sends are untouched.
        self.fault_hook: Optional[
            Callable[[int, int, MsgKind, int], Tuple[int, int]]] = None

    def hops(self, src: int, dst: int) -> int:
        """Table hop count; ids out of range raise (``-1`` would wrap)."""
        n = self.mesh.num_nodes
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"node id out of range: {src} -> {dst}")
        return self._hops[src * n + dst]

    def message_latency(self, src: int, dst: int, kind: MsgKind) -> int:
        """Cycles from injection at ``src`` to delivery at ``dst``."""
        hops = self.hops(src, dst)
        if hops == 0:
            return LOCAL_DELIVERY_LATENCY
        return hops * self.config.switch_latency + self._wire[kind][2] - 1

    def send(
        self,
        src: int,
        dst: int,
        kind: MsgKind,
        handler: Callable[[], None],
        sync: bool = False,
    ) -> int:
        """Deliver a message: account traffic, schedule ``handler``.

        ``sync`` tags the message as synchronization traffic (used by the
        Figure 20 LLC-sync-access metric upstream; the tag itself is only
        recorded in per-kind counters here). Returns the latency charged.
        """
        hops = self.hops(src, dst)
        name, size, flits = self._wire[kind]
        if self.config.model_link_contention:
            latency = self._contended_latency(src, dst, kind)
        elif hops:
            latency = hops * self.config.switch_latency + flits - 1
        else:
            latency = LOCAL_DELIVERY_LATENCY
        duplicates = 0
        if self.fault_hook is not None:
            extra, duplicates = self.fault_hook(src, dst, kind, latency)
            latency += extra
        # Local deliveries (hops == 0) count as messages, with no traffic.
        self.stats.record_message(name, flits, hops, size)
        if self.track_inflight and hops > 0:
            self.inflight_flits += flits
            inner = handler

            def handler() -> None:
                self.inflight_flits -= flits
                inner()

        if self.obs is not None:
            self.obs.emit("noc.send", src=src, dst=dst, kind=name,
                          flits=flits, hops=hops, latency=latency,
                          sync=sync)
        self.engine.schedule(latency, handler)
        for copy in range(duplicates):
            # The duplicate crosses the network (charged as traffic) but
            # the receiver discards it: a daemon no-op one cycle behind
            # each copy, so duplication never extends the run's liveness.
            self.stats.record_message(name, flits, hops, size)
            self.stats.msgs_duplicated += 1
            self.engine.schedule(latency + 1 + copy, _drop_duplicate,
                                 daemon=True)
        return latency

    def ckpt_state(self) -> dict:
        """Link occupancy as canonical data (checkpoint capture).

        Only links still busy at or after ``now`` matter — already-idle
        entries can never influence a future send — so stale rows are
        dropped, making the capture identical whether a dict entry was
        left behind or never created. The in-flight flit gauge is a
        telemetry artifact and deliberately excluded."""
        now = self.engine.now
        busy = {f"{src}>{dst}": until
                for (src, dst), until in sorted(self._link_busy.items())
                if until >= now}
        return {"link_busy": busy}

    def round_trip(self, a: int, b: int, req: MsgKind, resp: MsgKind) -> int:
        """Latency of a request/response pair without scheduling anything."""
        return self.message_latency(a, b, req) + self.message_latency(b, a, resp)

    def _contended_latency(self, src: int, dst: int, kind: MsgKind) -> int:
        """Wormhole-ish delivery over the X-Y route with link occupancy.

        The head waits for each link in turn (queuing behind earlier
        messages), each link takes ``switch_latency`` to traverse and is
        then held for ``flits`` cycles of serialization.
        """
        if src == dst:
            return LOCAL_DELIVERY_LATENCY
        flits = self._wire[kind][2]
        route = self.mesh.route(src, dst)
        time = self.engine.now
        for a, b in zip(route, route[1:]):
            link = (a, b)
            start = max(time, self._link_busy.get(link, 0))
            self._link_busy[link] = start + flits
            time = start + self.config.switch_latency
        time += flits - 1
        return time - self.engine.now
