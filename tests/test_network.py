"""Network timing and traffic accounting."""

import pytest

from repro.config import SystemConfig
from repro.noc.mesh import hop_table, make_topology
from repro.noc.messages import MsgKind, message_bytes
from repro.noc.network import Network
from repro.sim.engine import Engine
from repro.sim.stats import Stats


def make_network(cores=16):
    cfg = SystemConfig(num_cores=cores)
    engine = Engine()
    stats = Stats()
    return cfg, engine, stats, Network(cfg, engine, stats)


class TestMessageBytes:
    def test_control_messages_are_header_only(self):
        assert message_bytes(MsgKind.GETS, 64, 8, 8) == 8
        assert message_bytes(MsgKind.INV, 64, 8, 8) == 8
        assert message_bytes(MsgKind.ACK, 64, 8, 8) == 8

    def test_line_data_carries_line(self):
        assert message_bytes(MsgKind.DATA, 64, 8, 8) == 72
        assert message_bytes(MsgKind.PUTM, 64, 8, 8) == 72

    def test_word_data_carries_word(self):
        for kind in (MsgKind.DATA_WORD, MsgKind.WAKEUP,
                     MsgKind.STORE_THROUGH, MsgKind.ATOMIC):
            assert message_bytes(kind, 64, 8, 8) == 16


class TestLatency:
    def test_local_delivery_is_one_cycle(self):
        _cfg, _e, _s, net = make_network()
        assert net.message_latency(3, 3, MsgKind.DATA) == 1

    def test_remote_control_latency(self):
        cfg, _e, _s, net = make_network()
        hops = net.mesh.hops(0, 5)
        assert net.message_latency(0, 5, MsgKind.GETS) == hops * cfg.switch_latency

    def test_data_message_adds_serialization(self):
        cfg, _e, _s, net = make_network()
        hops = net.mesh.hops(0, 5)
        flits = cfg.flits_for(cfg.line_msg_bytes)
        assert (net.message_latency(0, 5, MsgKind.DATA)
                == hops * cfg.switch_latency + flits - 1)

    def test_round_trip(self):
        _cfg, _e, _s, net = make_network()
        rt = net.round_trip(0, 5, MsgKind.GETS, MsgKind.DATA)
        assert rt == (net.message_latency(0, 5, MsgKind.GETS)
                      + net.message_latency(5, 0, MsgKind.DATA))


class TestTrafficAccounting:
    def test_send_books_flit_hops(self):
        cfg, engine, stats, net = make_network()
        hops = net.mesh.hops(0, 5)
        net.send(0, 5, MsgKind.DATA, lambda: None)
        flits = cfg.flits_for(cfg.line_msg_bytes)
        assert stats.flit_hops == flits * hops
        assert stats.byte_hops == cfg.line_msg_bytes * hops
        assert stats.messages == 1
        assert stats.msg_kinds["Data"] == 1

    def test_local_send_counts_message_but_no_traffic(self):
        _cfg, engine, stats, net = make_network()
        net.send(2, 2, MsgKind.GETS, lambda: None)
        assert stats.messages == 1
        assert stats.flit_hops == 0

    def test_handler_scheduled_at_latency(self):
        _cfg, engine, stats, net = make_network()
        seen = []
        latency = net.send(0, 5, MsgKind.GETS, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [latency]


TOPOLOGIES = ("mesh", "torus")


def topology_network(topology, side):
    cfg = SystemConfig(num_cores=side * side, topology=topology)
    return cfg, Network(cfg, Engine(), Stats())


class TestPrecomputedTables:
    """The send path reads hop counts and wire sizes from tables built
    once; they must agree exactly with the topology and message model."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("side", range(1, 9))
    def test_hop_table_equals_topology_hops(self, topology, side):
        _cfg, net = topology_network(topology, side)
        topo = make_topology(topology, side)
        assert type(net.mesh) is type(topo)
        nodes = range(side * side)
        assert list(hop_table(topology, side)) == [
            topo.hops(src, dst) for src in nodes for dst in nodes]
        assert all(net.hops(src, dst) == topo.hops(src, dst)
                   for src in nodes for dst in nodes)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_hop_table_is_shared_per_shape(self, topology):
        _c, first = topology_network(topology, 4)
        _c, second = topology_network(topology, 4)
        assert first._hops is second._hops

    @pytest.mark.parametrize("kind", list(MsgKind))
    def test_wire_size_and_flits_per_kind(self, kind):
        cfg, net = topology_network("mesh", 8)
        size = message_bytes(kind, cfg.line_bytes, cfg.word_bytes,
                             cfg.header_bytes)
        assert net._wire[kind] == (kind.value, size, cfg.flits_for(size))


class TestNodeRangeChecks:
    """A flat table would wrap -1 to the last node; ids out of range
    must still raise."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("bad", [-1, 16])
    def test_out_of_range_src_or_dst_raises(self, topology, bad):
        _cfg, net = topology_network(topology, 4)
        for src, dst in ((bad, 5), (5, bad), (bad, bad)):
            with pytest.raises(ValueError):
                net.send(src, dst, MsgKind.GETS, lambda: None)
            with pytest.raises(ValueError):
                net.message_latency(src, dst, MsgKind.GETS)
        assert net.stats.messages == 0
