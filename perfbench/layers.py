"""Where the traced run attaches to each layer of the program.

Every span is opened by a wrapper installed here, around a call into a
layer's entry point; ``src/`` is not modified. Simulator wrappers go on
the instances of one :class:`~repro.core.machine.Machine` (which is
thrown away after its cell). The served run patches a few module and
class attributes for its duration and restores them afterwards
(:func:`patched`).

Span keys and the layer each one charges:

==========================  ==========================================
``sim.run``                  ``Machine.run`` (root of a cell)
``dispatch.<layer>``         an event callback, by its defining module
``core.resume``              ``Core._resume``: the thread body runs here
``protocols.issue``          ``CoherenceProtocol.issue``
``noc.send``                 ``Network.send``
``mem.cache``                ``SetAssociativeCache`` ops but eviction
``mem.evict_matching``       ``SetAssociativeCache.evict_matching``
``mem.store``                ``WordStore`` ops
``ckpt.take`` / ``.capture`` ``take_checkpoint`` / ``capture_state``
``ckpt.save`` / ``.latest``  ``CheckpointStore.save`` / ``.latest``
``serve.<call>``             ``ServeClient`` calls (client side)
``queue.<call>``             ``JobQueue`` methods (server thread)
``serve.exec``               ``execute_serve_job``
==========================  ==========================================

``core.resume`` is wrapped because an engine event that resolves a
future (a ``repro.protocols`` callback) resumes the waiting core
synchronously; without it the thread body's time would be charged to
the protocol handler that woke it.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Any, Callable, Dict, Iterator, List

from repro.core.machine import Machine
from repro.mem.cache import SetAssociativeCache
from repro.mem.store import WordStore

from perfbench.tracer import Tracer

#: Module prefix -> layer name for dispatched callbacks.
_MODULE_LAYERS = (("repro.core", "core"), ("repro.protocols", "protocols"),
                  ("repro.noc", "noc"), ("repro.sim", "sim"))

CACHE_OPS = ("lookup", "contains", "insert", "remove", "choose_victim")
STORE_OPS = ("read", "write", "read_versioned", "version", "fetch_add",
             "swap", "test_and_set", "compare_and_swap", "snapshot")


def _layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def dispatch_key_of() -> Callable[[Callable], str]:
    """``callback -> "dispatch.<layer>"``, memoised per module name."""
    memo: Dict[str, str] = {}

    def key_of(callback: Callable) -> str:
        module = getattr(callback, "__module__", None)
        if module is None or module == "functools":
            inner = getattr(callback, "func", None)
            module = getattr(inner, "__module__", None) or ""
        key = memo.get(module)
        if key is None:
            key = memo[module] = "dispatch." + _layer_of_module(module)
        return key

    return key_of


def protocol_caches(protocol: Any) -> List[SetAssociativeCache]:
    """Every :class:`SetAssociativeCache` the protocol holds: its own
    attributes, lists of caches, and caches held by objects of
    ``repro.protocols`` classes in its lists (the callback directories)."""
    found: Dict[int, SetAssociativeCache] = {}

    def note(value: Any) -> None:
        if isinstance(value, SetAssociativeCache):
            found[id(value)] = value

    for value in vars(protocol).values():
        note(value)
        if not isinstance(value, (list, tuple)):
            continue
        for item in value:
            note(item)
            if type(item).__module__.startswith("repro.protocols"):
                for inner in getattr(item, "__dict__", {}).values():
                    note(inner)
    return list(found.values())


def instrument_machine(machine: Machine, tracer: Tracer) -> None:
    """Wrap one machine's layer entry points with ``tracer`` spans."""
    machine.engine.profile_hook = tracer.dispatcher(dispatch_key_of())
    for core in machine._cores:
        core._resume = tracer.wrap("core.resume", core._resume)
    protocol = machine.protocol
    protocol.issue = tracer.wrap("protocols.issue", protocol.issue)
    network = machine.network
    network.send = tracer.wrap("noc.send", network.send)
    for cache in protocol_caches(protocol):
        for op in CACHE_OPS:
            setattr(cache, op, tracer.wrap("mem.cache", getattr(cache, op)))
        cache.evict_matching = tracer.wrap("mem.evict_matching",
                                           cache.evict_matching)
    store: WordStore = machine.store
    for op in STORE_OPS:
        setattr(store, op, tracer.wrap("mem.store", getattr(store, op)))


class FsyncCounter:
    """Counts ``os.fsync`` calls from any thread."""

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()

    def wrap(self, fsync: Callable[[int], None]) -> Callable[[int], None]:
        def counted(fd: int) -> None:
            with self._lock:
                self.count += 1
            fsync(fd)

        return counted


@contextlib.contextmanager
def patched(targets: List[tuple]) -> Iterator[None]:
    """Set ``(owner, name, value)`` attributes; restore them on exit."""
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _value in targets]
    try:
        for owner, name, value in targets:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def served_patches(tracer: Tracer, fsyncs: FsyncCounter,
                   on_run: Callable[[Machine], None]) -> List[tuple]:
    """Module/class attribute wrappers for the traced served run: the
    simulation (``Machine.run``) and the checkpoint layer, in the worker
    (client) thread, plus a process-wide fsync count. ``on_run`` sees
    each machine after its run (events, retired ops)."""
    import repro.ckpt.checkpoint as checkpoint
    from repro.ckpt.store import CheckpointStore

    machine_run = Machine.run

    def run(machine: Machine, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("sim.run"):
            stats = machine_run(machine, *args, **kwargs)
        on_run(machine)
        return stats

    return [
        (Machine, "run", run),
        (checkpoint, "take_checkpoint",
         tracer.wrap("ckpt.take", checkpoint.take_checkpoint)),
        (checkpoint, "capture_state",
         tracer.wrap("ckpt.capture", checkpoint.capture_state)),
        (CheckpointStore, "save",
         tracer.wrap("ckpt.save", CheckpointStore.save)),
        (CheckpointStore, "latest",
         tracer.wrap("ckpt.latest", CheckpointStore.latest)),
        (os, "fsync", fsyncs.wrap(os.fsync)),
    ]
