"""Telemetry overhead: probes must be near-free when nobody listens.

The observability layer's core promise is that an uninstrumented run
pays only one attribute load and an ``is None`` branch per probe site
(``telemetry=None``, the default), and that even an *attached* bus with
no subscribers costs just one extra dict lookup per emission.  These
benches time the same CB-One lock microbenchmark three ways — bare,
with an idle bus attached, and with full sampling + spans — and assert
the idle-bus run stays within a generous bound of the bare one.

The acceptance bar is <=5% overhead for no-collector runs; the assert
below uses 1.5x so CI-noise never flakes it, while the printed ratio is
what the figure-quality claim rests on (locally it sits at ~1.0x).
"""

import time

import pytest

from benchmarks.conftest import BENCH_CORES, BENCH_ITERS
from repro.config import config_for
from repro.harness.runner import run_workload
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.workloads.microbench import LockMicrobench

#: Manual-timing repetitions for the ratio test (best-of, to shed noise).
RATIO_ROUNDS = 5


def _config():
    return config_for("CB-One", num_cores=BENCH_CORES)


def _workload():
    return LockMicrobench("ttas", iterations=BENCH_ITERS)


def _bare_run():
    return run_workload(_config(), _workload())


def _idle_bus_run():
    # A Telemetry built from an all-off config still attaches when passed
    # as an instance: every component gets ``obs`` set, but nothing
    # subscribes, so each emit returns after one dict lookup.
    return run_workload(_config(), _workload(),
                        telemetry=Telemetry(TelemetryConfig()))


def _full_run():
    return run_workload(
        _config(), _workload(),
        telemetry=Telemetry(TelemetryConfig(sample_every=200, spans=True)))


def _best_of(fn, rounds=RATIO_ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bare_run(benchmark):
    """Baseline: no telemetry object anywhere (``obs is None``)."""
    result = benchmark.pedantic(_bare_run, rounds=3, iterations=1)
    assert result.cycles > 0


def test_attached_idle_bus(benchmark):
    """Bus attached, zero subscribers: the no-collector upper bound."""
    result = benchmark.pedantic(_idle_bus_run, rounds=3, iterations=1)
    assert result.cycles > 0
    assert result.telemetry is not None


def test_full_collection(benchmark):
    """Sampling every 200 cycles + span recording, for scale."""
    result = benchmark.pedantic(_full_run, rounds=3, iterations=1)
    assert result.telemetry.spans is not None


def test_idle_bus_overhead_bounded():
    """Idle-bus runtime stays within 1.5x of bare (target: <=1.05x)."""
    bare = _best_of(_bare_run)
    idle = _best_of(_idle_bus_run)
    ratio = idle / bare
    print(f"\nbare {bare * 1e3:.1f} ms, idle bus {idle * 1e3:.1f} ms, "
          f"ratio {ratio:.3f}x")
    assert ratio < 1.5
