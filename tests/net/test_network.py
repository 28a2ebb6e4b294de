"""Tests for the simulated network and topology generators."""

import pytest

from repro.errors import NetworkError
from repro.net.network import Network
from repro.net.topology import connect_full_mesh, connect_random_regular, diameter
from repro.sim.latency import LatencyModel
from repro.sim.parallel_stack import WindowedStackSimulator
from repro.sim.simulator import Simulator


class Recorder:
    """Minimal NetworkNode that records deliveries."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def deliver(self, from_peer, packet):
        self.received.append((from_peer, packet))


def make_network(n=3, **kwargs):
    sim = Simulator(seed=1)
    network = Network(simulator=sim, **kwargs)
    nodes = [Recorder(f"n{i}") for i in range(n)]
    for node in nodes:
        network.attach(node)
    return sim, network, nodes


class TestAttachment:
    def test_duplicate_attach_rejected(self):
        sim, network, nodes = make_network(1)
        with pytest.raises(NetworkError):
            network.attach(nodes[0])

    def test_unknown_node_rejected(self):
        sim, network, _ = make_network(1)
        with pytest.raises(NetworkError):
            network.detach("ghost")
        with pytest.raises(NetworkError):
            network.connect("n0", "ghost")
        assert network.degree("n0") == 0

    def test_contains(self):
        _, network, _ = make_network(2)
        assert "n0" in network
        assert "zz" not in network

    def test_detach_removes_links(self):
        _, network, _ = make_network(3)
        network.connect("n0", "n1")
        network.connect("n1", "n2")
        network.detach("n1")
        assert [network.degree(n) for n in network.node_ids()] == [0, 0]
        assert "n1" not in network


class TestLinks:
    def test_connect_and_neighbors(self):
        _, network, _ = make_network(3)
        network.connect("n0", "n1")
        network.connect("n0", "n2")
        assert network.neighbors("n0") == ["n1", "n2"]
        assert network.neighbors("n1") == ["n0"]

    def test_self_link_rejected(self):
        _, network, _ = make_network(2)
        with pytest.raises(NetworkError):
            network.connect("n0", "n0")

    def test_link_symmetric(self):
        _, network, _ = make_network(2)
        network.connect("n0", "n1")
        assert network.are_connected("n1", "n0")

    def test_disconnect(self):
        _, network, _ = make_network(2)
        network.connect("n0", "n1")
        network.disconnect("n0", "n1")
        assert not network.are_connected("n0", "n1")


class TestDelivery:
    def test_packet_delivered_after_latency(self):
        sim, network, nodes = make_network(
            2, latency=LatencyModel(base_seconds=0.5)
        )
        network.connect("n0", "n1")
        assert network.send("n0", ["n1"], "hello")
        assert nodes[1].received == []
        sim.run()
        assert nodes[1].received == [("n0", "hello")]
        assert sim.now == 0.5

    def test_send_without_link_fails_softly(self):
        sim, network, nodes = make_network(2)
        assert not network.send("n0", ["n1"], "x")
        sim.run()
        assert nodes[1].received == []
        assert network.metrics.counter("net.send_no_link") == 1

    def test_lossy_link_drops(self):
        sim, network, nodes = make_network(
            2, latency=LatencyModel(loss_probability=1.0)
        )
        network.connect("n0", "n1")
        assert not network.send("n0", ["n1"], "x")
        sim.run()
        assert nodes[1].received == []
        assert network.metrics.counter("net.packets_lost") == 1

    def test_churned_receiver_dead_letters(self):
        sim, network, nodes = make_network(2)
        network.connect("n0", "n1")
        network.send("n0", ["n1"], "x")
        network.detach("n1")
        sim.run()
        assert network.metrics.counter("net.packets_dead_lettered") == 1


class TestOneNetworkPerSimulator:
    """Deliveries go through ports the network registers on its
    kernel, so a kernel carries exactly one network."""

    @pytest.mark.parametrize(
        "make_sim",
        [Simulator, WindowedStackSimulator],
        ids=["serial", "windowed"],
    )
    def test_second_network_is_a_typed_error_naming_the_cause(self, make_sim):
        sim = make_sim()
        first = Network(simulator=sim)
        ports = dict(sim._ports)
        with pytest.raises(NetworkError, match="already carries a network"):
            Network(simulator=sim)
        # Refused before anything was registered or replaced.
        assert sim._ports == ports
        assert sim._ports["net.deliver"] == first._deliver_port


class TestTopologies:
    def _network(self, n):
        sim = Simulator(seed=2)
        network = Network(simulator=sim)
        ids = []
        for i in range(n):
            node = Recorder(f"p{i}")
            network.attach(node)
            ids.append(node.node_id)
        return network, ids

    def test_random_regular_degree(self):
        network, ids = self._network(20)
        connect_random_regular(network, ids, degree=4, seed=1)
        assert all(len(network.neighbors(i)) == 4 for i in ids)

    def test_random_regular_parity_check(self):
        network, ids = self._network(5)
        with pytest.raises(NetworkError):
            connect_random_regular(network, ids, degree=3)

    def test_random_regular_needs_enough_nodes(self):
        network, ids = self._network(3)
        with pytest.raises(NetworkError):
            connect_random_regular(network, ids, degree=4)

    def test_full_mesh(self):
        network, ids = self._network(5)
        edges = connect_full_mesh(network, ids)
        assert edges == 10
        assert diameter(network) == 1

    def test_random_regular_overlay_is_connected(self):
        network, ids = self._network(30)
        assert connect_random_regular(network, ids, degree=4, seed=3) == 60
        assert 2 <= diameter(network) < len(ids)

    def test_diameter_counts_hops_along_a_path(self):
        network, ids = self._network(4)
        for a, b in zip(ids, ids[1:]):
            network.connect(a, b)
        assert diameter(network) == 3

    def test_diameter_of_an_empty_overlay_is_zero(self):
        assert diameter(Network(simulator=Simulator())) == 0

    def test_diameter_of_disconnected_raises(self):
        network, ids = self._network(4)
        network.connect(ids[0], ids[1])
        with pytest.raises(NetworkError):
            diameter(network)
