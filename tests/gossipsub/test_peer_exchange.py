"""Tests for Peer Exchange (PX) on PRUNE (gossipsub v1.1)."""

import pytest

from repro.gossipsub.params import GossipSubParams
from repro.gossipsub.router import GossipSubRouter
from repro.gossipsub.rpc import RpcPacket
from repro.net.network import Network
from repro.sim.simulator import Simulator

TOPIC = "px-topic"


def make_router(network, node_id, **params):
    return GossipSubRouter(
        node_id, network, params=GossipSubParams(**params)
    )


@pytest.fixture
def rig():
    sim = Simulator(seed=9)
    network = Network(simulator=sim)
    return sim, network


class TestPxOffer:
    def test_oversubscription_prune_offers_px(self, rig):
        sim, network = rig
        hub = make_router(network, "hub", d=2, d_lo=1, d_hi=3, d_score=1)
        hub.subscribe(TOPIC)
        spokes = []
        for i in range(6):
            spoke = make_router(network, f"s{i}")
            spoke.subscribe(TOPIC)
            network.connect("hub", f"s{i}")
            hub.deliver(f"s{i}", RpcPacket(subscribe=[TOPIC]))
            hub.deliver(f"s{i}", RpcPacket(graft=[TOPIC]))
            spokes.append(spoke)
        hub.heartbeat()  # oversubscribed: prunes down to D with PX
        sim.run()
        # Some pruned spoke received suggestions and dialled them.
        px_dials = network.metrics.counter("gossipsub.px_dials")
        assert px_dials > 0

    def test_px_suggestions_exclude_the_pruned_peer(self, rig):
        sim, network = rig
        a = make_router(network, "a")
        b = make_router(network, "b")
        c = make_router(network, "c")
        a.subscribe(TOPIC)
        for node in (b, c):
            network.connect("a", node.node_id)
            a.deliver(node.node_id, RpcPacket(subscribe=[TOPIC]))
            a.deliver(node.node_id, RpcPacket(graft=[TOPIC]))
        sent = []
        original_send = a._send

        def capture(peers, packet):
            sent.extend((peer, packet) for peer in peers)
            original_send(peers, packet)

        a._send = capture
        a._prune_peer("b", TOPIC)
        prunes = [pkt for peer, pkt in sent if peer == "b" and pkt.prune]
        assert prunes
        offered = prunes[0].px.get(TOPIC, [])
        assert "b" not in offered
        assert "c" in offered


class TestPxAccept:
    def test_pruned_peer_dials_suggestions(self, rig):
        sim, network = rig
        a = make_router(network, "a")
        helper = make_router(network, "helper")
        helper.subscribe(TOPIC)
        a.subscribe(TOPIC)
        class Pruner:
            node_id = "pruner"

            def deliver(self, from_peer, packet):
                pass

        network.attach(Pruner())
        network.connect("a", "pruner")
        a.scores.add_peer("pruner")
        a.deliver(
            "pruner",
            RpcPacket(prune=[(TOPIC, 30.0)], px={TOPIC: ["helper"]}),
        )
        sim.run()
        assert network.are_connected("a", "helper")
        assert "helper" in a.topic_peers[TOPIC]

    def test_px_from_low_score_peer_ignored(self, rig):
        sim, network = rig
        a = make_router(network, "a")
        make_router(network, "helper").subscribe(TOPIC)
        a.subscribe(TOPIC)
        class Bad:
            node_id = "bad"

            def deliver(self, from_peer, packet):
                pass

        network.attach(Bad())
        network.connect("a", "bad")
        a.scores.add_peer("bad")
        a.scores.reject_message("bad", TOPIC)  # score < accept_px_threshold
        a.deliver(
            "bad", RpcPacket(prune=[(TOPIC, 30.0)], px={TOPIC: ["helper"]})
        )
        sim.run()
        assert not network.are_connected("a", "helper")

    def test_px_to_unknown_node_skipped(self, rig):
        sim, network = rig
        a = make_router(network, "a")
        a.subscribe(TOPIC)
        class Pruner:
            node_id = "pruner"

            def deliver(self, from_peer, packet):
                pass

        network.attach(Pruner())
        network.connect("a", "pruner")
        a.deliver(
            "pruner",
            RpcPacket(prune=[(TOPIC, 30.0)], px={TOPIC: ["ghost-peer"]}),
        )
        sim.run()  # no exception; nothing dialled
        assert network.metrics.counter("gossipsub.px_dials") == 0

    def test_px_never_dials_self(self, rig):
        sim, network = rig
        a = make_router(network, "a")
        a.subscribe(TOPIC)
        class Pruner:
            node_id = "pruner"

            def deliver(self, from_peer, packet):
                pass

        network.attach(Pruner())
        network.connect("a", "pruner")
        a.deliver(
            "pruner", RpcPacket(prune=[(TOPIC, 30.0)], px={TOPIC: ["a"]})
        )
        sim.run()
        assert network.metrics.counter("gossipsub.px_dials") == 0


class TestPxHealing:
    def test_mesh_degree_recovers_via_px(self, rig):
        """A peer pruned by an oversubscribed hub finds new mesh members
        through PX instead of staying under-connected."""
        sim, network = rig
        params = dict(d=2, d_lo=1, d_hi=3, d_score=1)
        routers = [
            make_router(network, f"n{i}", **params) for i in range(8)
        ]
        # Star around n0 initially.
        for router in routers:
            router.subscribe(TOPIC)
        for i in range(1, 8):
            network.connect("n0", f"n{i}")
        for router in routers:
            for peer in router.peers():
                router.announce_to(peer)
            router.start()
        sim.run(until=30.0)
        # The hub pruned most spokes; PX dialling created new links, so
        # the spokes are no longer singletons hanging off n0.
        links = sum(network.degree(n) for n in network.node_ids()) // 2
        extra_links = links - 7
        assert extra_links > 0
