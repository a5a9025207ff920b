"""2-D mesh topology with deterministic X-Y routing.

The paper's machine is an 8x8 mesh of tiles, one core + L1 + LLC bank per
tile (Table 2). We model the network at the latency/traffic level: a
message from tile A to tile B takes ``hops * switch_latency`` cycles of
head latency plus ``(flits - 1)`` cycles of serialization, and contributes
``flits * hops`` flit-hops of traffic. Deterministic X-Y routing fixes the
hop count to the Manhattan distance (X first, then Y — the path itself
does not change the distance, but it is exposed for tests and for
potential link-contention extensions).
"""

from __future__ import annotations

import functools
from typing import List, Tuple


class Mesh:
    """Square 2-D mesh over ``side * side`` tiles, X-Y dimension order."""

    def __init__(self, side: int) -> None:
        if side < 1:
            raise ValueError("mesh side must be >= 1")
        self.side = side
        self.num_nodes = side * side

    def coords(self, node: int) -> Tuple[int, int]:
        """(x, y) coordinates of a tile id (row-major numbering)."""
        self._check(node)
        return node % self.side, node // self.side

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.side and 0 <= y < self.side):
            raise ValueError(f"coordinates out of range: ({x}, {y})")
        return y * self.side + x

    def _check(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise ValueError(f"node id out of range: {node}")

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two tiles (0 for local delivery)."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def route(self, src: int, dst: int) -> List[int]:
        """The X-Y route as the list of tiles traversed, inclusive.

        X-dimension is fully resolved before the Y-dimension (deterministic
        dimension-order routing, as in Table 2).
        """
        path = [src]
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        step = 1 if dx > x else -1
        while x != dx:
            x += step
            path.append(self.node_at(x, y))
        step = 1 if dy > y else -1
        while y != dy:
            y += step
            path.append(self.node_at(x, y))
        return path

    def average_distance(self) -> float:
        """Mean hop count over all ordered pairs (used in energy sanity tests)."""
        total = 0
        for src in range(self.num_nodes):
            for dst in range(self.num_nodes):
                total += self.hops(src, dst)
        return total / (self.num_nodes * self.num_nodes)


class Torus(Mesh):
    """2-D torus: the mesh with wraparound links in both dimensions.

    A topology extension (the paper's Table 2 machine is a plain mesh):
    wraparound halves the average distance, shrinking every remote-access
    latency — useful for checking that the protocol comparisons are not
    artifacts of mesh diameter.
    """

    def _axis_step(self, a: int, b: int) -> int:
        """Signed unit step from a to b along one axis, shortest way."""
        forward = (b - a) % self.side
        backward = (a - b) % self.side
        return 1 if forward <= backward else -1

    def _axis_hops(self, a: int, b: int) -> int:
        forward = (b - a) % self.side
        return min(forward, self.side - forward)

    def hops(self, src: int, dst: int) -> int:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return self._axis_hops(sx, dx) + self._axis_hops(sy, dy)

    def route(self, src: int, dst: int) -> List[int]:
        """X-Y dimension-order routing taking the shorter way around."""
        path = [src]
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        while x != dx:
            x = (x + self._axis_step(x, dx)) % self.side
            path.append(self.node_at(x, y))
        while y != dy:
            y = (y + self._axis_step(y, dy)) % self.side
            path.append(self.node_at(x, y))
        return path


def make_topology(name: str, side: int) -> Mesh:
    """Topology factory: "mesh" (Table 2 default) or "torus"."""
    if name == "mesh":
        return Mesh(side)
    if name == "torus":
        return Torus(side)
    raise ValueError(f"unknown topology {name!r} (mesh | torus)")


@functools.lru_cache(maxsize=None)
def hop_table(name: str, side: int) -> Tuple[int, ...]:
    """Flat ``src * n + dst`` hop counts, built once per shape."""
    topology = make_topology(name, side)
    nodes = range(topology.num_nodes)
    return tuple(topology.hops(src, dst) for src in nodes for dst in nodes)
