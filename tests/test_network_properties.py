"""Property-based NoC checks: latency structure and traffic conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.noc.messages import MsgKind, message_bytes
from repro.noc.network import Network
from repro.sim.engine import Engine
from repro.sim.stats import Stats


def wire_bytes(cfg, kind):
    return message_bytes(kind, cfg.line_bytes, cfg.word_bytes,
                         cfg.header_bytes)


def make_network(contention=False, topology="mesh"):
    cfg = SystemConfig(num_cores=16, model_link_contention=contention,
                       topology=topology)
    engine = Engine()
    stats = Stats()
    return cfg, engine, stats, Network(cfg, engine, stats)


@settings(max_examples=60, deadline=None)
@given(src=st.integers(0, 15), dst=st.integers(0, 15),
       kind=st.sampled_from(list(MsgKind)))
def test_latency_is_affine_in_hops(src, dst, kind):
    cfg, _e, _s, net = make_network()
    latency = net.message_latency(src, dst, kind)
    hops = net.mesh.hops(src, dst)
    if hops == 0:
        assert latency == 1
    else:
        flits = cfg.flits_for(wire_bytes(cfg, kind))
        assert latency == hops * cfg.switch_latency + flits - 1


@settings(max_examples=40, deadline=None)
@given(src=st.integers(0, 15), dst=st.integers(0, 15),
       kind=st.sampled_from(list(MsgKind)))
def test_contended_never_faster_than_uncontended(src, dst, kind):
    _c, _e, _s, net = make_network(contention=True)
    base = net.message_latency(src, dst, kind)
    contended = net._contended_latency(src, dst, kind)
    assert contended >= base


@settings(max_examples=30, deadline=None)
@given(messages=st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15),
              st.sampled_from([MsgKind.GETS, MsgKind.DATA,
                               MsgKind.WAKEUP])),
    min_size=1, max_size=30))
def test_traffic_accounting_conserved(messages):
    """flit_hops == sum over messages of flits(kind) * hops(src, dst)."""
    cfg, engine, stats, net = make_network()
    expected = 0
    for src, dst, kind in messages:
        net.send(src, dst, kind, lambda: None)
        expected += (cfg.flits_for(wire_bytes(cfg, kind))
                     * net.mesh.hops(src, dst))
    assert stats.flit_hops == expected
    assert stats.messages == len(messages)


@settings(max_examples=40, deadline=None)
@given(src=st.integers(0, 15), dst=st.integers(0, 15))
def test_torus_latency_never_exceeds_mesh(src, dst):
    mesh_net = make_network(topology="mesh")[3]
    torus_net = make_network(topology="torus")[3]
    assert (torus_net.message_latency(src, dst, MsgKind.DATA)
            <= mesh_net.message_latency(src, dst, MsgKind.DATA))
