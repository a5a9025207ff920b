"""The simulation workloads: ``paper_apps`` and ``sync_spin``.

Each cell is one simulation on a bare :class:`~repro.core.machine.Machine`
(no service, telemetry, resilience or checkpointing), built fresh, so
every cell starts with empty caches. A cell's simulated seed is the
configuration default; the benchmark seed decides the order in which
cells run, pass after pass, until the run's time is used. Every run's
``Stats`` is checked against the committed digest of that cell.
"""

from __future__ import annotations

import gc
import json
import random
import time
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.config import config_for
from repro.core.machine import Machine
from repro.orchestrate.registry import build_workload

from perfbench import layers
from perfbench.common import (MODELLED, SETUP_REPEATS, Result, cpu_seconds,
                              median, percentile, stats_digest)
from perfbench.metrics import PER_LAYER_NAMES
from perfbench.tracer import Tracer

MODULES = ("repro.core.machine", "repro.orchestrate.registry")


class Cell(NamedTuple):
    """One (workload spec, configuration) simulation."""

    key: str
    spec: str
    params: Tuple[Tuple[str, object], ...]
    config: str
    cores: int

    def build(self) -> Machine:
        machine = Machine(config_for(self.config, num_cores=self.cores))
        build_workload(self.spec, dict(self.params)).install(machine)
        return machine


def _app(name: str, config: str, cores: int = 64,
         scale: float = 1.0) -> Cell:
    # Figure 21's scalable synchronization: CLH locks, TreeSR barriers.
    params = (("barrier_name", "treesr"), ("lock_name", "clh"),
              ("name", name), ("scale", scale))
    return Cell(f"{name}/{config}", "app", params, config, cores)


def _sync(construct: str, config: str, cores: int = 64,
          rounds: int = 8) -> Cell:
    # Figures 1 and 20 run 8 episodes per construct.
    if construct == "signal_wait":
        return Cell(f"signal_wait/{config}", "signal_wait",
                    (("rounds", rounds),), config, cores)
    spec, name, count = {"ttas": ("lock", "lock_name", "iterations"),
                         "clh": ("lock", "lock_name", "iterations"),
                         "sr": ("barrier", "barrier_name", "episodes")
                         }[construct]
    return Cell(f"{spec}_{construct}/{config}", spec,
                ((count, rounds), (name, construct)), config, cores)


def workload_cells(workload: str, tiny: bool = False) -> List[Cell]:
    """The cells of a sim workload; ``tiny`` gives 16-core, short ones
    with the same protocol mix (for the benchmark's own tests)."""
    app = (lambda name, cfg: _app(name, cfg, 16, 0.1)) if tiny else _app
    sync = (lambda c, cfg: _sync(c, cfg, 16, 2)) if tiny else _sync
    if workload == "paper_apps":
        return [app("barnes", "Invalidation"), app("barnes", "BackOff-10"),
                app("barnes", "CB-One"), app("fft", "CB-One"),
                app("fluidanimate", "BackOff-10"),
                app("radix", "Invalidation")]
    if workload == "sync_spin":
        return [sync("ttas", "Invalidation"), sync("sr", "Invalidation"),
                sync("clh", "BackOff-10"), sync("signal_wait", "BackOff-10"),
                sync("sr", "CB-All"), sync("signal_wait", "CB-One")]
    raise ValueError(f"not a simulation workload: {workload!r}")


def digest_key(workload: str, cell: Cell, tiny: bool = False) -> str:
    return f"{'tiny/' if tiny else ''}{workload}/{cell.key}"


class CellRun(NamedTuple):
    digest: str
    run_s: float      # Machine.run, CPU seconds
    job_s: float      # build + run + digest, CPU seconds
    machine: Machine


def run_cell(cell: Cell, tracer: Optional[Tracer] = None) -> CellRun:
    """Build, (optionally trace,) run and digest one cell, timed in CPU
    seconds. The previous cell's garbage is collected first, so that no
    cell pays for another and peak memory does not depend on the cell
    order."""
    gc.collect()
    start = cpu_seconds()
    machine = cell.build()
    if tracer is not None:
        layers.instrument_machine(machine, tracer)
    t0 = cpu_seconds()
    if tracer is None:
        stats = machine.run()
    else:
        with tracer.span("sim.run"):
            stats = machine.run()
    run_s = cpu_seconds() - t0
    digest = stats_digest(stats)
    return CellRun(digest, run_s, cpu_seconds() - start, machine)


def _check(expected: Dict[str, str], key: str, digest: str,
           errors: List[str]) -> bool:
    want = expected.get(key)
    if digest != want:
        errors.append(f"{key}: digest {digest[:12]} != expected "
                      f"{(want or 'missing')[:12]}")
        return False
    return True


def _passes(cells: List[Cell], rng: random.Random) -> Iterator[Cell]:
    """Endless passes over ``cells``, each in a fresh seeded order."""
    while True:
        yield from rng.sample(cells, len(cells))


def measure(workload: str, seed: int, seconds: float,
            expected: Dict[str, str], tiny: bool = False) -> Result:
    """Untraced run: cells round-robin in seeded order for ``seconds`` of
    wall time (every cell at least once); per-cell medians of CPU time."""
    cells = workload_cells(workload, tiny)
    rng = random.Random(seed)
    runs: Dict[str, List[float]] = {cell.key: [] for cell in cells}
    jobs: Dict[str, List[float]] = {cell.key: [] for cell in cells}
    errors: List[str] = []
    attempted = failed = 0
    tried = set()
    deadline = time.perf_counter() + seconds
    for cell in _passes(cells, rng):
        attempted += 1
        tried.add(cell.key)
        key = digest_key(workload, cell, tiny)
        try:
            outcome = run_cell(cell)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            failed += 1
            errors.append(f"{key}: {type(exc).__name__}: {exc}")
        else:
            if not _check(expected, key, outcome.digest, errors):
                failed += 1
            runs[cell.key].append(outcome.run_s)
            jobs[cell.key].append(outcome.job_s)
            # Free this machine before the next cell is built, so no cell
            # runs beside its predecessor's heap.
            del outcome
        if time.perf_counter() >= deadline and len(tried) == len(cells):
            break
    cell_run = [median(runs[c.key]) for c in cells if runs[c.key]]
    cell_job = [median(jobs[c.key]) for c in cells if jobs[c.key]]
    metrics = {
        "sim_cpu_s": sum(cell_run),
        "jobs_per_cpu_s": (len(cell_job) / sum(cell_job) if cell_job
                           else 0.0),
        "job_cpu_p50_ms": 1000.0 * median(cell_job),
        "job_cpu_p95_ms": 1000.0 * percentile(cell_job, 95),
    }
    return Result(attempted, failed, metrics, errors)


def setup_seconds(workload: str, tiny: bool = False) -> float:
    """In-process half of set-up: CPU seconds building every cell's
    machine and workload (median of repeats); imports are timed
    separately."""
    cells = workload_cells(workload, tiny)
    samples = []
    for _ in range(SETUP_REPEATS):
        start = cpu_seconds()
        for cell in cells:
            cell.build()
        samples.append(cpu_seconds() - start)
    return median(samples)


# ------------------------------------------------------------------ traced

def layer_metrics(tracers: List[Tracer]) -> Dict[str, float]:
    """Per-layer times and counts, summed over the cells' tracers."""
    def total(key: str) -> float:
        return sum(t.total_s(key) for t in tracers)

    def own(key: str) -> float:
        return sum(t.self_s(key) for t in tracers)

    def calls(key: str) -> int:
        return sum(t.calls(key) for t in tracers)

    dispatch = ("dispatch.core", "dispatch.protocols", "dispatch.noc",
                "dispatch.sim", "dispatch.other")
    sends = calls("noc.send")
    out = {
        "sim.events": sum(calls(key) for key in dispatch),
        "sim.dispatch_s": sum(total(key) for key in dispatch),
        "sim.loop_self_s": own("sim.run") + own("dispatch.sim"),
        "core.self_s": own("dispatch.core") + own("core.resume"),
        "protocols.issue_calls": calls("protocols.issue"),
        "protocols.issue_self_s": own("protocols.issue"),
        "protocols.handler_self_s": own("dispatch.protocols"),
        "noc.send_calls": sends,
        "noc.send_self_s": own("noc.send") + own("dispatch.noc"),
        "mem.cache_calls": calls("mem.cache") + calls("mem.evict_matching"),
        "mem.cache_self_s": own("mem.cache") + own("mem.evict_matching"),
        "mem.evict_matching_calls": calls("mem.evict_matching"),
        "mem.evict_matching_s": total("mem.evict_matching"),
        "mem.store_calls": calls("mem.store"),
        "mem.store_s": own("mem.store"),
    }
    out["noc.ns_per_send"] = (1e9 * out["noc.send_self_s"] / sends
                              if sends else 0.0)
    accounted = (out["sim.loop_self_s"] + out["core.self_s"]
                 + out["protocols.issue_self_s"]
                 + out["protocols.handler_self_s"] + out["noc.send_self_s"]
                 + out["mem.cache_self_s"] + out["mem.store_s"])
    run = total("sim.run")
    out["trace.accounted_frac"] = accounted / run if run else 0.0
    return out


def measure_traced(workload: str, seed: int, expected: Dict[str, str],
                   trace_path: str, tiny: bool = False) -> Result:
    """Each cell once untraced and, right after, once traced (seeded
    order; back to back, so host-speed drift hits both alike). The traced
    digest must equal the untraced one (probe-effect guard) and the
    committed one. Per-cell spans and counts go to ``trace_path``."""
    cells = workload_cells(workload, tiny)
    errors: List[str] = []
    attempted = failed = 0
    tracers: List[Tracer] = []
    per_cell: Dict[str, Dict] = {}
    modelled = dict.fromkeys(MODELLED, 0)
    ops_retired = 0
    traced_s = plain_s = 0.0
    for cell in random.Random(seed).sample(cells, len(cells)):
        attempted += 2
        key = digest_key(workload, cell, tiny)
        tracer = Tracer()
        try:
            plain = run_cell(cell)
            traced = run_cell(cell, tracer)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            failed += 2
            errors.append(f"{key}: {type(exc).__name__}: {exc}")
            continue
        if not _check(expected, key, plain.digest, errors):
            failed += 1
        if traced.digest != plain.digest or tracer.open_spans:
            failed += 1
            errors.append(f"traced {key}: digest differs from the untraced "
                          f"run or {tracer.open_spans} spans left open")
        tracers.append(tracer)
        traced_s += traced.run_s
        plain_s += plain.run_s
        stats = traced.machine.stats
        counts = {name: getattr(stats, field)
                  for name, field in MODELLED.items()}
        for name, value in counts.items():
            modelled[name] += value
        retired = sum(traced.machine.progress().values())
        ops_retired += retired
        per_cell[cell.key] = {"modelled": counts, "ops_retired": retired,
                              "run_s": traced.run_s,
                              "untraced_run_s": plain.run_s,
                              "layers": layer_metrics([tracer]),
                              "spans": tracer.stats}
        del plain, traced
    metrics = layer_metrics(tracers)
    # The checkpoint and service layers do not run on a bare Machine.
    metrics.update({name: 0 for name in PER_LAYER_NAMES
                    if name.startswith(("ckpt.", "serve."))})
    metrics.update(modelled)
    metrics["core.ops_retired"] = ops_retired
    metrics["trace_overhead_frac"] = (traced_s / plain_s - 1.0
                                      if plain_s else 0.0)
    with open(trace_path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, "cells": per_cell},
                  handle)
    return Result(attempted, failed, metrics, errors)
