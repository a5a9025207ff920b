"""The served workload: ``served_mix``.

A closed loop in one thread drives an in-process
:class:`~repro.serve.ServeService` over HTTP, one connection at a time,
and acts as the service's only worker: ``submit``, then for a fresh job
``lease`` -> ``execute_serve_job`` -> ``commit``, then ``result``. The
queue checkpoints with its default period (every 2000 cycles).

Submissions come in blocks of 18: one fresh spec for each of 3 kinds
(TTAS lock, SR barrier, signal/wait; 16 cores) x 4 configurations, and
6 resubmissions of specs already done in this run, which the queue
answers from its result cache. Tenants are drawn from three. The
benchmark seed draws each fresh spec's simulated seed from a pool of
:data:`POOL_SEEDS` whose results are committed as digests, the tenants
and the order. Whole blocks keep the mix the same in every run.

Correctness: every submission must end ``done``; every served result
must equal the committed digest of a direct ``run_workload`` of its
spec; in the untraced run every fresh spec is also re-run directly after
its block and must match too (served == unserved). Any client error is
a failed submission.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import tempfile
import time
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.config import config_for
from repro.harness.runner import run_workload
from repro.orchestrate.jobspec import JobSpec
from repro.orchestrate.record import record_of
from repro.orchestrate.registry import build_workload
from repro.serve import JobQueue, ServeClient, ServeService, execute_serve_job
from repro.serve.journal import journal_path

from perfbench import layers
from perfbench.common import (MODELLED, SETUP_REPEATS, WORK_DIR, Result,
                              cpu_seconds, dir_bytes, median, percentile,
                              result_digest)
from perfbench.metrics import PER_LAYER_NAMES
from perfbench.tracer import Tracer

MODULES = ("repro.serve", "repro.orchestrate.registry")

CONFIGS = ("Invalidation", "BackOff-10", "CB-All", "CB-One")
KINDS = (("lock", {"lock_name": "ttas", "iterations": 4}),
         ("barrier", {"barrier_name": "sr", "episodes": 4}),
         ("signal_wait", {"rounds": 4}))
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
CORES = 16
#: Simulated seeds per (kind, config); one per block, so at most this
#: many blocks per run.
POOL_SEEDS = 64
HITS_PER_BLOCK = 6
#: The p95 needs at least 200 samples.
MIN_SUBMISSIONS = 200
WORKER = "perfbench-worker"
CLIENT_CALLS = ("submit", "lease", "commit", "result")


def spec_dict(workload: str, params: Dict[str, Any], config: str,
              seed: int) -> Dict[str, Any]:
    return JobSpec(config, workload, params, {"num_cores": CORES},
                   seed=seed).to_dict()


def spec_pool() -> List[Dict[str, Any]]:
    """Every spec a served run can submit (their digests are committed)."""
    return [spec_dict(workload, params, config, seed)
            for workload, params in KINDS for config in CONFIGS
            for seed in range(1, POOL_SEEDS + 1)]


class Submission(NamedTuple):
    tenant: str
    spec: Dict[str, Any]
    job_key: str
    resubmit: bool


def blocks(seed: int) -> Iterator[List[Submission]]:
    """The seeded submission stream, block by block."""
    rng = random.Random(seed)
    seeds = {(workload, config): rng.sample(range(1, POOL_SEEDS + 1),
                                            POOL_SEEDS)
             for workload, _params in KINDS for config in CONFIGS}
    done: List[Dict[str, Any]] = []
    for index in range(POOL_SEEDS):
        fresh = [spec_dict(workload, params, config,
                           seeds[(workload, config)][index])
                 for workload, params in KINDS for config in CONFIGS]
        rng.shuffle(fresh)
        slots = [False] * len(fresh) + [True] * HITS_PER_BLOCK
        rng.shuffle(slots)
        if not done and slots[0]:
            first = slots.index(False)
            slots[0], slots[first] = False, True
        block = []
        for resubmit in slots:
            if resubmit:
                spec = rng.choice(done)
            else:
                spec = fresh.pop()
                done.append(spec)
            block.append(Submission(rng.choice(TENANTS), spec,
                                    JobSpec.from_dict(spec).job_key(),
                                    resubmit))
        yield block


def direct_run(spec: Dict[str, Any]) -> Tuple[str, float]:
    """``run_workload`` of ``spec`` without the service:
    (digest, CPU seconds)."""
    job = JobSpec.from_dict(spec)
    config = config_for(job.config_label, seed=job.seed,
                        **job.config_overrides)
    workload = build_workload(job.workload, job.workload_params)
    start = cpu_seconds()
    result = run_workload(config, workload)
    elapsed = cpu_seconds() - start
    return result_digest(record_of(job, result)["result"]), elapsed


# ------------------------------------------------------------ the service

def _fresh_root() -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="served-", dir=WORK_DIR)


@contextlib.contextmanager
def running_service() -> Iterator[ServeService]:
    """A started service on a fresh queue root, stopped and removed
    afterwards."""
    root = _fresh_root()
    service = ServeService(JobQueue(root)).start()
    try:
        yield service
    finally:
        service.stop()
        shutil.rmtree(root, ignore_errors=True)


def setup_seconds() -> float:
    """CPU seconds starting the service and opening its journal (median
    of repeats)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        root = _fresh_root()
        start = cpu_seconds()
        service = ServeService(JobQueue(root)).start()
        samples.append(cpu_seconds() - start)
        service.stop()
        shutil.rmtree(root, ignore_errors=True)
    return median(samples)


# --------------------------------------------------------------- the loop

class Sample(NamedTuple):
    latency_s: float  # wall seconds, submit to result
    cpu_s: float      # CPU seconds of the process (client and server)
    sub: Submission
    ok: bool
    hit: bool
    sub_id: str
    digest: str


def _span(tracer: Optional[Tracer], key: str):
    return tracer.span(key) if tracer is not None else contextlib.nullcontext()


class Loop:
    """One client (and worker) of one service; runs whole blocks and
    keeps the samples. With a ``tracer``, the client calls and each job
    and execution are spans. Requests are serialized, so the process's
    CPU time over a submission is that submission's cost, client and
    server side."""

    def __init__(self, service: ServeService,
                 tracer: Optional[Tracer] = None) -> None:
        self.service = service
        self.tracer = tracer
        self.client = ServeClient(service.url)
        if tracer is not None:
            for call in CLIENT_CALLS:
                setattr(self.client, call, tracer.wrap(
                    f"serve.{call}", getattr(self.client, call)))
        self.samples: List[Sample] = []
        self.errors: List[str] = []
        self.cpu_s = 0.0
        self.blocks = 0

    def run_block(self, block: List[Submission]) -> None:
        start = cpu_seconds()
        for sub in block:
            if self.tracer is not None:
                self.tracer.job = sub.job_key[:12]
            self.samples.append(self._submit(sub))
        self.cpu_s += cpu_seconds() - start
        self.blocks += 1

    def _submit(self, sub: Submission) -> Sample:
        client, tracer = self.client, self.tracer
        start, cpu = time.perf_counter(), cpu_seconds()
        try:
            with _span(tracer, "job"):
                view = client.submit(sub.tenant, sub.spec)
                hit = bool(view.get("cache_hit"))
                if not hit:
                    lease = client.lease(WORKER)
                    if lease is None or lease["job_key"] != view["job_key"]:
                        raise RuntimeError(
                            f"lease for {sub.job_key[:12]} returned "
                            f"{lease and lease['job_key']}")
                    with _span(tracer, "serve.exec"):
                        record = execute_serve_job(lease["payload"])
                    client.commit(lease["job_key"], int(lease["token"]),
                                  record)
                record = client.result(view["submission_id"])
        except Exception as exc:  # noqa: BLE001 - a failed submission
            self.errors.append(
                f"{sub.job_key[:12]}: {type(exc).__name__}: {exc}")
            return Sample(time.perf_counter() - start, cpu_seconds() - cpu,
                          sub, False, False, "", "")
        return Sample(time.perf_counter() - start, cpu_seconds() - cpu, sub,
                      True, hit, view["submission_id"],
                      result_digest(record["result"]))


def check_loop(loop: Loop, expected: Dict[str, str]) -> int:
    """Count failed submissions (appending reasons to ``loop.errors``)."""
    failed = 0
    for sample in loop.samples:
        sub = sample.sub
        if not sample.ok:
            failed += 1
            continue
        reason = ""
        if sample.digest != expected.get(sub.job_key):
            reason = "result differs from the direct run's digest"
        elif sample.hit != sub.resubmit:
            reason = (f"cache_hit={sample.hit} for a "
                      f"{'re' if sub.resubmit else 'first '}submission")
        else:
            state = loop.service.queue.submission_view(sample.sub_id)["state"]
            if state != "done":
                reason = f"submission ended {state!r}"
        if reason:
            failed += 1
            loop.errors.append(f"{sub.job_key[:12]}: {reason}")
    return failed


def check_direct(loop: Loop, count: int, expected: Dict[str, str]
                 ) -> Tuple[float, int, int]:
    """Re-run the fresh specs among the last ``count`` samples without the
    service. Returns (CPU seconds in run_workload, attempted, failed)."""
    fresh = [s for s in loop.samples[-count:] if not s.sub.resubmit]
    total = 0.0
    failed = 0
    for sample in fresh:
        key = sample.sub.job_key
        try:
            digest, elapsed = direct_run(sample.sub.spec)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            failed += 1
            loop.errors.append(f"direct {key[:12]}: {exc}")
            continue
        total += elapsed
        if digest != expected.get(key) or digest != sample.digest:
            failed += 1
            loop.errors.append(f"direct {key[:12]}: served != unserved")
    return total, len(fresh), failed


def measure(seed: int, seconds: float, expected: Dict[str, str],
            tiny: bool = False) -> Result:
    """Untraced run. Each block is served, then its fresh specs are re-run
    directly (outside the served time); whole blocks until ``seconds``
    have passed and at least :data:`MIN_SUBMISSIONS` were made (one block
    when ``tiny``)."""
    direct_s: List[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    with running_service() as service:
        loop = Loop(service)
        for block in blocks(seed):
            loop.run_block(block)
            seconds_run, tried, bad = check_direct(loop, len(block),
                                                   expected)
            direct_s.append(seconds_run)
            attempted += tried
            failed += bad
            if tiny or (time.perf_counter() - start >= seconds
                        and len(loop.samples) >= MIN_SUBMISSIONS):
                break
        failed += check_loop(loop, expected)
    costs = [s.cpu_s for s in loop.samples]
    metrics = {
        "sim_cpu_s": median(direct_s),
        "jobs_per_cpu_s": len(costs) / loop.cpu_s,
        "job_cpu_p50_ms": 1000.0 * median(costs),
        "job_cpu_p95_ms": 1000.0 * percentile(costs, 95),
    }
    return Result(len(loop.samples) + attempted, failed, metrics,
                  loop.errors)


# ------------------------------------------------------------------ traced

def _paired_http_ms(client: Tracer, server: Tracer) -> float:
    """Median of (client call - queue method) over matched requests.
    Requests are serialized, so the i-th client call of a kind pairs with
    the i-th queue call of that kind. A request that failed before
    reaching the queue (counted as a failed submission) breaks the
    pairing of its kind, which then contributes its mean gap."""
    gaps: List[float] = []
    for call in CLIENT_CALLS:
        outer = client.durations(f"serve.{call}")
        inner = server.durations(f"queue.{call}")
        if len(outer) == len(inner):
            gaps.extend(o - i for o, i in zip(outer, inner))
        elif outer:
            gaps.append((sum(outer) - sum(inner)) / len(outer))
    return 1000.0 * median(gaps)


def measure_traced(seed: int, seconds: float, expected: Dict[str, str],
                   trace_path: str, tiny: bool = False) -> Result:
    """The same blocks on two services, alternating block by block: one
    untraced, one traced (so host-speed drift hits both alike), until
    ``seconds`` have passed; per-layer metrics from the traced side. The
    worker-side and queue-side spans go to ``trace_path`` and
    ``<trace_path>-queue.json``."""
    client = Tracer(keep=["job", "serve.exec", "sim.run"]
                    + [f"serve.{call}" for call in CLIENT_CALLS])
    server = Tracer(keep=[f"queue.{call}" for call in CLIENT_CALLS])
    fsyncs = layers.FsyncCounter()
    modelled = dict.fromkeys(MODELLED, 0)
    totals = {"events": 0, "ops": 0}

    def on_run(machine: Any) -> None:
        totals["events"] += machine.events_executed
        totals["ops"] += sum(machine.progress().values())
        for name, field in MODELLED.items():
            modelled[name] += getattr(machine.stats, field)

    patches = layers.served_patches(client, fsyncs, on_run)
    with running_service() as plain_service, \
            running_service() as traced_service:
        queue = traced_service.queue
        for call in CLIENT_CALLS:
            setattr(queue, call,
                    server.wrap(f"queue.{call}", getattr(queue, call)))
        plain = Loop(plain_service)
        traced = Loop(traced_service, client)
        start = time.perf_counter()
        for block in blocks(seed):
            plain.run_block(block)
            with layers.patched(patches):
                traced.run_block(block)
            if tiny or time.perf_counter() - start >= seconds:
                break
        failed = check_loop(plain, expected) + check_loop(traced, expected)
        journal_bytes = os.path.getsize(journal_path(queue.root))
        ckpt_bytes = dir_bytes(queue.checkpoint_dir)
    errors = plain.errors + traced.errors
    if client.open_spans or server.open_spans:
        failed += 1
        errors.append("spans left open")

    def ms(tracer: Tracer, key: str) -> float:
        return 1000.0 * median(tracer.durations(key))

    exec_s = client.total_s("serve.exec")
    ckpt_s = (client.total_s("ckpt.take") + client.total_s("ckpt.save")
              + client.total_s("ckpt.latest"))
    jobs_s = client.total_s("job")
    parts_s = (sum(client.total_s(f"serve.{call}") for call in CLIENT_CALLS)
               + exec_s)
    samples = traced.samples
    hits = [s.latency_s for s in plain.samples if s.ok and s.hit]
    # The simulator's per-call layers are not traced inside the worker.
    metrics: Dict[str, float] = {
        name: 0.0 for name in PER_LAYER_NAMES
        if name.startswith(("sim.", "core.", "protocols.", "noc.", "mem."))}
    metrics.update(modelled)
    metrics.update({
        "sim.events": totals["events"],
        "core.ops_retired": totals["ops"],
        "ckpt.boundaries": client.calls("ckpt.take"),
        "ckpt.capture_s": client.total_s("ckpt.capture"),
        "ckpt.save_s": client.total_s("ckpt.save"),
        "ckpt.bytes_written": ckpt_bytes,
        "ckpt.share_of_exec": ckpt_s / exec_s if exec_s else 0.0,
        "serve.submit_ms": ms(client, "serve.submit"),
        "serve.lease_ms": ms(client, "serve.lease"),
        "serve.commit_ms": ms(client, "serve.commit"),
        "serve.result_ms": ms(client, "serve.result"),
        "serve.queue_submit_ms": ms(server, "queue.submit"),
        "serve.queue_commit_ms": ms(server, "queue.commit"),
        "serve.http_ms": _paired_http_ms(client, server),
        "serve.exec_ms": ms(client, "serve.exec"),
        "serve.fsyncs": fsyncs.count,
        "serve.journal_bytes": journal_bytes,
        "serve.cache_hit_frac": (sum(1 for s in samples if s.hit)
                                 / len(samples) if samples else 0.0),
        "serve.hit_p50_ms": 1000.0 * median(hits),
        "trace_overhead_frac": (traced.cpu_s / plain.cpu_s - 1.0
                                if plain.cpu_s else 0.0),
        "trace.accounted_frac": parts_s / jobs_s if jobs_s else 0.0,
    })
    client.write(trace_path, {"workload": "served_mix", "seed": seed})
    server.write(trace_path.replace(".json", "-queue.json"),
                 {"workload": "served_mix", "seed": seed})
    attempted = len(plain.samples) + len(traced.samples)
    return Result(attempted, failed, metrics, errors)
