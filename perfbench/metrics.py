"""The benchmark's metric catalogue: names, units, direction, and what
each per-layer metric is expected to move.

``BENCHMARK.json`` lists the same names; ``test_perfbench`` checks that
the two agree. Every workload reports every metric: an untraced run
(``--trace 0``) reports :data:`END_TO_END`, a traced run (``--trace 1``)
reports :data:`PER_LAYER`. A layer that a workload does not exercise
reports 0 there (the checkpoint and service layers on the simulation
workloads; the per-call simulator layers on ``served_mix``, whose
simulations run untraced inside the worker).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: What the metric means, and for a per-layer metric which
    #: end-to-end metric on which workload it should move.
    about: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    about: str


# The time metrics are CPU seconds of the benchmark process (all its
# threads), not wall time: see perfbench.common.cpu_seconds.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median over 5 set-ups, in CPU seconds: importing the "
             "workload's modules in a fresh interpreter, plus building "
             "every cell's Machine and workload (sim workloads) or "
             "starting the service and opening its journal (served_mix)"),
    EndToEnd("sim_cpu_s", "s", "lower", 0.25,
             "CPU seconds in Machine.run summed over the workload's "
             "cells, per-cell median (sim workloads); direct run_workload "
             "of one block's 12 fresh specs, median over blocks "
             "(served_mix)"),
    EndToEnd("jobs_per_cpu_s", "1/s", "higher", 0.25,
             "submissions completed per CPU second of the served loop "
             "(served_mix); cells per CPU second of per-cell median "
             "build+run+check time (sim workloads)"),
    EndToEnd("job_cpu_p50_ms", "ms", "lower", 0.25,
             "median CPU cost of a job: submit to result over all "
             "submissions, client and server threads (served_mix); "
             "median over cells of the per-cell median build+run+check "
             "CPU time (sim workloads)"),
    EndToEnd("job_cpu_p95_ms", "ms", "lower", 0.25,
             "95th percentile (nearest rank) of the same CPU costs; at "
             "least 200 submissions per served run; on the sim workloads "
             "the slowest cell"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident memory of the benchmark process"),
)

_SIM = "sim_cpu_s on paper_apps and sync_spin"
_SERVED = "served_mix"

PER_LAYER: Tuple[Metric, ...] = (
    # repro.sim
    Metric("sim.events", "count", "lower",
           "engine events dispatched (Engine.profile_hook); fixed by the "
           "digests, changes only with the model"),
    Metric("sim.dispatch_s", "s", "lower",
           f"time inside dispatched callbacks; moves {_SIM}"),
    Metric("sim.loop_self_s", "s", "lower",
           "Machine.run minus dispatch time (heap plus loop); moves "
           f"{_SIM} about equally"),
    Metric("sim.cycles", "count", "lower",
           "modelled: simulated cycles summed over cells (served: over "
           "fresh jobs); a speed-only change leaves it identical"),
    # repro.core
    Metric("core.ops_retired", "count", "lower",
           "modelled: ops retired by all cores (Machine.progress())"),
    Metric("core.self_s", "s", "lower",
           "self time of dispatched repro.core callbacks and Core._resume "
           f"(thread bodies); moves {_SIM}, least on paper_apps"),
    # repro.protocols
    Metric("protocols.issue_calls", "count", "lower",
           "CoherenceProtocol.issue calls"),
    Metric("protocols.issue_self_s", "s", "lower",
           "time in protocol.issue minus nested noc/mem/core spans; moves "
           "sim_cpu_s mostly on sync_spin"),
    Metric("protocols.handler_self_s", "s", "lower",
           "self time of dispatched repro.protocols callbacks; moves "
           "sim_cpu_s mostly on sync_spin"),
    Metric("protocols.llc_sync_accesses", "count", "lower",
           "modelled: LLC accesses by synchronization"),
    Metric("protocols.invalidations_sent", "count", "lower",
           "modelled: MESI invalidations sent"),
    Metric("protocols.cb_wakeups", "count", "lower",
           "modelled: callback-directory wakeups"),
    # repro.noc
    Metric("noc.send_calls", "count", "lower", "Network.send calls"),
    Metric("noc.send_self_s", "s", "lower",
           f"self time of Network.send; moves {_SIM}; served_mix should "
           "not move"),
    Metric("noc.ns_per_send", "ns", "lower",
           "noc.send_self_s per send; moves with noc.send_self_s"),
    Metric("noc.messages", "count", "lower", "modelled: messages sent"),
    Metric("noc.flit_hops", "count", "lower", "modelled: flit-hops"),
    # repro.mem
    Metric("mem.cache_calls", "count", "lower",
           "SetAssociativeCache calls (lookup, contains, insert, remove, "
           "choose_victim, evict_matching) on every cache the protocol "
           "holds"),
    Metric("mem.cache_self_s", "s", "lower",
           "self time of those calls; moves sim_cpu_s on paper_apps, "
           "predicted no change on sync_spin"),
    Metric("mem.evict_matching_calls", "count", "lower",
           "SetAssociativeCache.evict_matching calls (VIPS fence scans)"),
    Metric("mem.evict_matching_s", "s", "lower",
           "time in evict_matching; moves sim_cpu_s on paper_apps"),
    Metric("mem.store_calls", "count", "lower", "WordStore op calls"),
    Metric("mem.store_s", "s", "lower",
           "self time of WordStore ops; moves sim_cpu_s on paper_apps"),
    Metric("mem.l1_misses", "count", "lower", "modelled: L1 misses"),
    Metric("mem.llc_accesses", "count", "lower", "modelled: LLC accesses"),
    # repro.ckpt
    Metric("ckpt.boundaries", "count", "lower",
           "take_checkpoint calls (served_mix; 0 on the sim workloads)"),
    Metric("ckpt.capture_s", "s", "lower",
           "time in capture_state; moves job_cpu_p50_ms and "
           f"jobs_per_cpu_s on {_SERVED}"),
    Metric("ckpt.save_s", "s", "lower",
           "time in CheckpointStore.save; moves job_cpu_p50_ms and "
           f"jobs_per_cpu_s on {_SERVED}"),
    Metric("ckpt.bytes_written", "bytes", "lower",
           "checkpoint store size at the end of the served run"),
    Metric("ckpt.share_of_exec", "ratio", "lower",
           "checkpoint time (take_checkpoint + save + latest) / "
           f"execute_serve_job time; moves job_cpu_p50_ms on {_SERVED}"),
    # repro.serve
    Metric("serve.submit_ms", "ms", "lower",
           "median client-side ServeClient.submit; moves job_cpu_p50_ms "
           f"on {_SERVED}"),
    Metric("serve.lease_ms", "ms", "lower",
           "median client-side ServeClient.lease; moves job_cpu_p50_ms"),
    Metric("serve.commit_ms", "ms", "lower",
           "median client-side ServeClient.commit; moves job_cpu_p50_ms"),
    Metric("serve.result_ms", "ms", "lower",
           "median client-side ServeClient.result; moves job_cpu_p50_ms "
           "and serve.hit_p50_ms"),
    Metric("serve.queue_submit_ms", "ms", "lower",
           "median JobQueue.submit (server thread): journal append + fsync"),
    Metric("serve.queue_commit_ms", "ms", "lower",
           "median JobQueue.commit (server thread): result cache write, "
           "journal"),
    Metric("serve.http_ms", "ms", "lower",
           "median client time minus queue time per request (HTTP, JSON)"),
    Metric("serve.exec_ms", "ms", "lower",
           "median execute_serve_job of fresh jobs (simulation plus "
           "checkpoints); moves job_cpu_p50_ms and jobs_per_cpu_s"),
    Metric("serve.fsyncs", "count", "lower",
           "os.fsync calls during the served run (journal, cache, "
           "checkpoints)"),
    Metric("serve.journal_bytes", "bytes", "lower",
           "queue journal size at the end of the served run"),
    Metric("serve.cache_hit_frac", "ratio", "higher",
           "cache-hit submissions / submissions (about 1/3 by design)"),
    Metric("serve.hit_p50_ms", "ms", "lower",
           "median submit-to-result wall latency of cache hits (untraced side "
           "of the traced run); the read path"),
    # the trace itself
    Metric("trace_overhead_frac", "ratio", "lower",
           "traced / untraced CPU time of the same work, minus 1"),
    Metric("trace.accounted_frac", "ratio", "higher",
           "layer self times / traced Machine.run time (sim workloads); "
           "client calls + execute_serve_job / job latency (served_mix); "
           "must be within 5% of 1"),
)

PER_LAYER_NAMES = tuple(metric.name for metric in PER_LAYER)
END_TO_END_NAMES = tuple(metric.name for metric in END_TO_END)
UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
