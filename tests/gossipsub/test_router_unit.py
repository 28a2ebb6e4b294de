"""Router unit tests via direct RPC injection (no timing involved)."""

import pytest

from repro.errors import GossipError
from repro.gossipsub.params import GossipSubParams
from repro.gossipsub.router import GossipSubRouter
from repro.gossipsub.rpc import GossipMessage, RpcPacket, compute_message_id
from repro.net.network import Network
from repro.sim.simulator import Simulator

TOPIC = "unit-topic"


@pytest.fixture
def rig():
    """Two connected routers plus a raw recorder neighbour."""
    sim = Simulator(seed=3)
    network = Network(simulator=sim)
    a = GossipSubRouter("a", network)
    b = GossipSubRouter("b", network)

    class Recorder:
        node_id = "rec"

        def __init__(self):
            self.packets = []

        def deliver(self, from_peer, packet):
            self.packets.append((from_peer, packet))

    recorder = Recorder()
    network.attach(recorder)
    network.connect("a", "b")
    network.connect("a", "rec")
    return sim, network, a, b, recorder


def make_message(payload=b"x", topic=TOPIC):
    return GossipMessage(
        msg_id=compute_message_id(topic, payload), topic=topic, payload=payload
    )


class TestDeliverValidation:
    def test_non_rpc_packet_rejected(self, rig):
        sim, network, a, b, rec = rig
        with pytest.raises(GossipError):
            a.deliver("b", b"raw bytes")

    def test_subscribe_updates_topic_peers(self, rig):
        sim, network, a, b, rec = rig
        a.deliver("b", RpcPacket(subscribe=[TOPIC]))
        assert "b" in a.topic_peers[TOPIC]


class TestGraftHandling:
    def test_graft_accepted_when_subscribed(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        a.deliver("b", RpcPacket(graft=[TOPIC]))
        assert "b" in a.mesh[TOPIC]

    def test_graft_refused_when_not_subscribed(self, rig):
        sim, network, a, b, rec = rig
        a.deliver("rec", RpcPacket(graft=[TOPIC]))
        sim.run()
        # The recorder got a PRUNE back.
        assert any(
            pkt.prune and pkt.prune[0][0] == TOPIC
            for _from, pkt in rec.packets
        )

    def test_graft_during_backoff_penalised(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        a._backoff[("b", TOPIC)] = sim.now + 60
        a.deliver("b", RpcPacket(graft=[TOPIC]))
        assert "b" not in a.mesh[TOPIC]
        # P7 behaviour penalty applied.
        assert a.scores._stats("b").behaviour_penalty > 0

    def test_graft_from_negative_peer_refused(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        for _ in range(3):
            a.scores.reject_message("b", TOPIC)
        a.deliver("b", RpcPacket(graft=[TOPIC]))
        assert "b" not in a.mesh[TOPIC]


class TestPruneHandling:
    def test_prune_removes_and_backoffs(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        a.deliver("b", RpcPacket(graft=[TOPIC]))
        a.deliver("b", RpcPacket(prune=[(TOPIC, 42.0)]))
        assert "b" not in a.mesh[TOPIC]
        assert a._in_backoff("b", TOPIC)


class TestIhaveIwant:
    def test_ihave_for_unknown_topic_ignored(self, rig):
        sim, network, a, b, rec = rig
        a.deliver("rec", RpcPacket(ihave={"other": ["m1"]}))
        sim.run()
        assert not any(pkt.iwant for _f, pkt in rec.packets)

    def test_ihave_triggers_iwant_for_unseen(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        a.deliver("rec", RpcPacket(ihave={TOPIC: ["m1", "m2"]}))
        sim.run()
        iwants = [pkt.iwant for _f, pkt in rec.packets if pkt.iwant]
        assert iwants == [["m1", "m2"]]

    def test_ihave_for_seen_message_not_requested(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        message = make_message()
        a.seen.witness(message.msg_id, sim.now)
        a.deliver("rec", RpcPacket(ihave={TOPIC: [message.msg_id]}))
        sim.run()
        assert not any(pkt.iwant for _f, pkt in rec.packets)

    def test_iwant_served_from_mcache(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        message = make_message(b"cached")
        a.mcache.put(message)
        a.deliver("rec", RpcPacket(iwant=[message.msg_id]))
        sim.run()
        served = [
            pkt.publish for _f, pkt in rec.packets if pkt.publish
        ]
        assert served and served[0][0].payload == b"cached"

    def test_iwant_for_unknown_id_ignored(self, rig):
        sim, network, a, b, rec = rig
        a.deliver("rec", RpcPacket(iwant=["nope"]))
        sim.run()
        assert not any(pkt.publish for _f, pkt in rec.packets)

    def test_gossip_from_low_score_peer_ignored(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        a.scores.add_peer("rec")
        for _ in range(2):
            a.scores.reject_message("rec", TOPIC)  # score -40 < -10
        a.deliver("rec", RpcPacket(ihave={TOPIC: ["m9"]}))
        sim.run()
        assert not any(pkt.iwant for _f, pkt in rec.packets)


class TestPublishPaths:
    @pytest.mark.parametrize("flood_publish", [True, False])
    def test_publish_on_an_unsubscribed_topic_raises(self, rig, flood_publish):
        """A node publishes only where it relays: no targets are picked,
        nothing is cached, counted or scheduled."""
        sim, network, a, b, rec = rig
        a.params = GossipSubParams(flood_publish=flood_publish)
        # a knows b subscribes to TOPIC but is not subscribed itself.
        a.deliver("b", RpcPacket(subscribe=[TOPIC]))
        queued, counters = len(sim._queue), dict(network.metrics.counters)
        with pytest.raises(GossipError):
            a.publish(TOPIC, b"not a member")
        assert len(sim._queue) == queued == 0
        assert dict(network.metrics.counters) == counters
        assert not a.seen and not a.mcache.gossip_ids(TOPIC)

    def test_mesh_publish_reaches_mesh_members_only(self, rig):
        sim, network, a, b, rec = rig
        a.params = GossipSubParams(flood_publish=False)
        a.subscribe(TOPIC)
        for peer in ("b", "rec"):
            a.deliver(peer, RpcPacket(subscribe=[TOPIC]))
        a.deliver("rec", RpcPacket(graft=[TOPIC]))
        msg_id = a.publish(TOPIC, b"to the mesh")
        sim.run()
        published = [pkt.publish for _f, pkt in rec.packets if pkt.publish]
        assert [[m.msg_id for m in batch] for batch in published] == [[msg_id]]
        # b is a known topic peer, but not a mesh member.
        assert msg_id not in b.seen

    def test_flood_publish_reaches_every_topic_peer(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        assert a.params.flood_publish
        for peer in ("b", "rec"):
            a.deliver(peer, RpcPacket(subscribe=[TOPIC]))
        msg_id = a.publish(TOPIC, b"to everyone")
        sim.run()
        assert any(pkt.publish for _f, pkt in rec.packets)
        assert msg_id in b.seen

    def test_flood_publish_skips_peers_below_publish_threshold(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        for peer in ("b", "rec"):
            a.deliver(peer, RpcPacket(subscribe=[TOPIC]))
        for _ in range(3):
            a.scores.reject_message("rec", TOPIC)  # score -90 < -50
        assert a.scores.score("rec", sim.now) < a.scores.params.publish_threshold
        msg_id = a.publish(TOPIC, b"not to rec")
        sim.run()
        assert not any(pkt.publish for _f, pkt in rec.packets)
        assert msg_id in b.seen

    def test_publish_with_an_empty_mesh_delivers_locally(self, rig):
        sim, network, a, b, rec = rig
        a.params = GossipSubParams(flood_publish=False)
        a.subscribe(TOPIC)
        got = []
        a.on_delivery(lambda t, p, m, f: got.append((t, p, f)))
        queued = len(sim._queue)
        a.publish(TOPIC, b"alone")
        # Nothing is sent, but the publisher delivers its own message.
        assert len(sim._queue) == queued
        assert got == [(TOPIC, b"alone", "a")]

    def test_publish_caches_and_counts(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        msg_id = a.publish(TOPIC, b"cached")
        assert msg_id == compute_message_id(TOPIC, b"cached")
        assert msg_id in a.seen
        assert a.mcache.gossip_ids(TOPIC) == [msg_id]
        assert network.metrics.counters["gossipsub.published"] == 1

    def test_seen_cache_blocks_reprocessing(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        got = []
        a.on_delivery(lambda t, p, m, f: got.append(p))
        message = make_message(b"pp")
        a.deliver("b", RpcPacket(publish=[message]))
        a.deliver("b", RpcPacket(publish=[message]))
        assert got == [b"pp"]

    def test_delivery_callback_not_called_for_foreign_topic(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        got = []
        a.on_delivery(lambda t, p, m, f: got.append(p))
        a.deliver("b", RpcPacket(publish=[make_message(topic="other")]))
        assert got == []


class TestHeartbeatMaintenance:
    def test_mesh_refilled_after_manual_clear(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        b.subscribe(TOPIC)
        a.deliver("b", RpcPacket(subscribe=[TOPIC]))
        b.deliver("a", RpcPacket(subscribe=[TOPIC]))
        a.heartbeat()
        assert "b" in a.mesh[TOPIC]

    def test_disconnected_peer_evicted_on_heartbeat(self, rig):
        sim, network, a, b, rec = rig
        a.subscribe(TOPIC)
        a.deliver("b", RpcPacket(graft=[TOPIC]))
        network.disconnect("a", "b")
        a.heartbeat()
        assert "b" not in a.mesh[TOPIC]
        assert a._in_backoff("b", TOPIC)

    def test_oversubscribed_mesh_pruned_to_d(self, rig):
        sim, network, a, b, rec = rig
        params = GossipSubParams(d=2, d_lo=1, d_hi=3, d_score=1)
        a.params = params
        a.subscribe(TOPIC)
        for i in range(6):
            peer = GossipSubRouter(f"x{i}", network)
            peer.subscribe(TOPIC)
            network.connect("a", f"x{i}")
            a.deliver(f"x{i}", RpcPacket(subscribe=[TOPIC]))
            a.deliver(f"x{i}", RpcPacket(graft=[TOPIC]))
        assert len(a.mesh[TOPIC]) == 6
        a.heartbeat()
        assert len(a.mesh[TOPIC]) <= params.d
