"""Multi-topic relay tests: one RLN group per topic (paper §III)."""

import pytest

from repro.errors import GossipError
from repro.gossipsub.router import ValidationResult
from repro.net.network import Network
from repro.net.topology import connect_full_mesh
from repro.sim.latency import LatencyModel
from repro.sim.simulator import Simulator
from repro.waku.message import WakuMessage
from repro.waku.relay import WakuRelayNode

CHAT = "/waku/2/chat/proto"
NEWS = "/waku/2/news/proto"


def build(n=4, seed=2):
    sim = Simulator(seed=seed)
    network = Network(simulator=sim, latency=LatencyModel(base_seconds=0.02))
    nodes = [WakuRelayNode(f"w{i}", network, pubsub_topic=CHAT) for i in range(n)]
    for node in nodes:
        node.join_topic(NEWS)
    connect_full_mesh(network, [n.node_id for n in nodes])
    for node in nodes:
        node.start()
    sim.run_for(3.0)
    return sim, network, nodes


class TestTopicMembership:
    def test_joined_topics_listed(self):
        _, _, nodes = build(2)
        assert nodes[0].router.subscriptions == {CHAT, NEWS}

    def test_join_is_idempotent(self):
        _, _, nodes = build(2)
        nodes[0].join_topic(NEWS)
        assert nodes[0].router.subscriptions == {CHAT, NEWS}

    def test_publish_to_unjoined_topic_rejected(self):
        _, _, nodes = build(2)
        with pytest.raises(GossipError):
            nodes[0].publish(WakuMessage(payload=b"x"), topic="/nope/1/x/raw")

    def test_topics_joined_before_start_subscribe_on_start(self):
        sim = Simulator(seed=2)
        network = Network(simulator=sim)
        node = WakuRelayNode("w0", network, pubsub_topic=CHAT)
        node.join_topic(NEWS)
        assert node.router.subscriptions == set()
        with pytest.raises(GossipError):
            node.publish(WakuMessage(payload=b"early"))
        node.start()
        assert node.router.subscriptions == {CHAT, NEWS}

    def test_publish_defaults_to_primary_topic(self):
        sim, _, nodes = build(3)
        chat_got, news_got = [], []
        nodes[1].on_message(lambda m, _id: chat_got.append(m.payload), topic=CHAT)
        nodes[1].on_message(lambda m, _id: news_got.append(m.payload), topic=NEWS)
        nodes[0].publish(WakuMessage(payload=b"primary"))
        sim.run_for(5.0)
        assert chat_got == [b"primary"]
        assert news_got == []

    def test_late_join_while_running(self):
        sim, _, nodes = build(3)
        nodes[0].join_topic("/waku/2/late/proto")
        sim.run_for(3.0)
        got = []
        nodes[1].join_topic("/waku/2/late/proto")
        sim.run_for(3.0)
        nodes[1].on_message(
            lambda m, _id: got.append(m.payload), topic="/waku/2/late/proto"
        )
        nodes[0].publish(
            WakuMessage(payload=b"late bloom"), topic="/waku/2/late/proto"
        )
        sim.run_for(5.0)
        assert got == [b"late bloom"]


class TestTopicScoping:
    def test_handlers_scoped_per_topic(self):
        sim, _, nodes = build(3)
        chat_got, news_got, all_got = [], [], []
        nodes[1].on_message(lambda m, _id: chat_got.append(m.payload), topic=CHAT)
        nodes[1].on_message(lambda m, _id: news_got.append(m.payload), topic=NEWS)
        nodes[1].on_message(lambda m, _id: all_got.append(m.payload))
        nodes[0].publish(WakuMessage(payload=b"to chat"), topic=CHAT)
        nodes[0].publish(WakuMessage(payload=b"to news"), topic=NEWS)
        sim.run_for(5.0)
        assert chat_got == [b"to chat"]
        assert news_got == [b"to news"]
        assert sorted(all_got) == [b"to chat", b"to news"]

    def test_validators_scoped_per_topic(self):
        """A strict validator on one topic must not affect the other —
        this is what lets each topic be its own RLN group."""
        sim, _, nodes = build(3)
        for node in nodes:
            node.add_validator(
                lambda _topic, m: ValidationResult.REJECT, topic=NEWS
            )
        got = []
        nodes[2].on_message(lambda m, _id: got.append(m.payload))
        nodes[0].publish(WakuMessage(payload=b"chat ok"), topic=CHAT)
        nodes[0].publish(WakuMessage(payload=b"news blocked"), topic=NEWS)
        sim.run_for(5.0)
        assert got == [b"chat ok"]

    def test_unscoped_validator_applies_everywhere(self):
        sim, _, nodes = build(3)
        for node in nodes:
            node.add_validator(
                lambda _topic, m: ValidationResult.REJECT
                if m.payload.startswith(b"bad")
                else ValidationResult.ACCEPT
            )
        got = []
        nodes[1].on_message(lambda m, _id: got.append(m.payload))
        nodes[0].publish(WakuMessage(payload=b"bad chat"), topic=CHAT)
        nodes[0].publish(WakuMessage(payload=b"bad news"), topic=NEWS)
        nodes[0].publish(WakuMessage(payload=b"fine"), topic=CHAT)
        sim.run_for(5.0)
        assert got == [b"fine"]


class TestRlnGroupPerTopic:
    def test_rln_topic_protected_open_topic_not(self):
        """One host participates in an RLN-protected topic and a free
        topic simultaneously; only the former enforces proofs."""
        from repro.core.protocol import WakuRlnRelayNetwork

        net = WakuRlnRelayNetwork(peer_count=5, seed=33)
        net.register_all()
        net.start()
        net.run(2.0)
        open_topic = "/waku/2/open/proto"
        for peer in net.peers:
            peer.relay.join_topic(open_topic)
        net.run(3.0)
        got = []
        net.peer(2).relay.on_message(
            lambda m, _id: got.append(m.payload), topic=open_topic
        )
        # No RLN proof needed on the open topic...
        net.peer(0).relay.publish(
            WakuMessage(payload=b"free speech"), topic=open_topic
        )
        net.run(5.0)
        assert got == [b"free speech"]
        # ...while the RLN topic still rejects proofless messages.
        rln_got = []
        net.peer(2).relay.on_message(
            lambda m, _id: rln_got.append(m.payload),
            topic=net.peer(2).relay.pubsub_topic,
        )
        net.peer(0).relay.publish(WakuMessage(payload=b"proofless"))
        net.run(5.0)
        assert b"proofless" not in rln_got
