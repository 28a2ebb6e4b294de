"""Tests for the baseline networks and the adversary models."""

import pytest

from repro.baselines.pow import ATTACKER_RIG, PowEnvelope
from repro.baselines.relay_baselines import (
    BaselineNetwork,
    FloodSpammer,
    PowRelayNetwork,
    PowSpammer,
    SybilArmy,
    scoring_network,
)


class TestBaselineNetwork:
    def test_plain_relay_delivers(self):
        net = BaselineNetwork(peer_count=8, seed=1)
        deliveries = net.collect_deliveries()
        net.start()
        net.run(3.0)
        from repro.waku.message import WakuMessage

        net.nodes[0].publish(WakuMessage(payload=b"plain"))
        net.run(5.0)
        received = sum(1 for m in deliveries.values() if b"plain" in m)
        assert received == 8

    def test_add_node_joins_topic(self):
        net = BaselineNetwork(peer_count=6, seed=2)
        deliveries = net.collect_deliveries()
        net.start()
        net.run(3.0)
        newcomer = net.add_node("newbie", ["peer-0", "peer-1"])
        got = []
        newcomer.on_message(lambda m, _id: got.append(m.payload))
        net.run(3.0)
        from repro.waku.message import WakuMessage

        newcomer.publish(WakuMessage(payload=b"from the newcomer"))
        net.run(5.0)
        received = sum(
            1 for m in deliveries.values() if b"from the newcomer" in m
        )
        assert received >= 5  # reaches (nearly) all original peers

    def test_flood_spammer_floods(self):
        net = BaselineNetwork(peer_count=6, seed=3)
        deliveries = net.collect_deliveries()
        net.start()
        net.run(2.0)
        flooder = FloodSpammer(net, "peer-0", rate_per_second=5.0)
        flooder.run(4.0)
        net.run(10.0)
        assert flooder.sent == 20
        spam_at_peer1 = sum(
            1 for m in deliveries["peer-1"] if m.startswith(b"SPAM")
        )
        assert spam_at_peer1 == 20  # nothing stops it


class TestPowRelayNetwork:
    def test_unmined_message_rejected(self):
        net = PowRelayNetwork(peer_count=5, seed=4, mining_bits=8)
        deliveries = net.collect_deliveries()
        net.start()
        net.run(2.0)
        from repro.waku.message import WakuMessage

        # Publish raw payload without mining.
        net.nodes[0].publish(WakuMessage(payload=b"no work attached"))
        net.run(5.0)
        others = {k: v for k, v in deliveries.items() if k != "peer-0"}
        assert all(not msgs for msgs in others.values())

    def test_mined_message_accepted(self):
        net = PowRelayNetwork(peer_count=5, seed=5, mining_bits=8)
        deliveries = net.collect_deliveries()
        net.start()
        net.run(2.0)
        delay = net.publish_with_pow(net.nodes[0], b"worked for this")
        assert delay > 0
        net.run(delay + 10.0)
        delivered = sum(
             1
            for msgs in deliveries.values()
            for m in msgs
            if b"worked for this" in m
        )
        assert delivered == 5

    def test_envelope_payload_roundtrip(self):
        net = PowRelayNetwork(peer_count=4, seed=6, mining_bits=6)
        deliveries = net.collect_deliveries()
        net.start()
        net.run(2.0)
        net.publish_with_pow(net.nodes[1], b"inner payload")
        net.run(30.0)
        envelopes = [
            PowEnvelope.from_bytes(m)
            for m in deliveries["peer-0"]
        ]
        assert any(e.payload == b"inner payload" for e in envelopes)

    def test_pow_spammer_rate_follows_hardware(self):
        net = PowRelayNetwork(peer_count=4, seed=7, difficulty_bits=18)
        spammer = PowSpammer(net, "peer-0", device=ATTACKER_RIG)
        assert spammer.sustainable_rate == pytest.approx(
            ATTACKER_RIG.hash_rate / 2**18
        )
        assert spammer.sustainable_rate > 100  # the attack is cheap


class TestScoringNetwork:
    def test_sybil_botnet_gets_spam_through(self):
        net = scoring_network(peer_count=10, seed=8)
        deliveries = net.collect_deliveries()
        net.start()
        net.run(2.0)
        army = SybilArmy(net, bot_count=4, rate_per_bot=2.0, shared_ip=None)
        army.deploy()
        army.run(5.0)
        net.run(20.0)
        honest_spam = sum(
            sum(1 for m in msgs if m.startswith(b"SPAM"))
            for nid, msgs in deliveries.items()
            if nid not in set(army.bots)
        )
        assert honest_spam > 0  # scoring alone does not stop a botnet

    def test_single_ip_sybils_graylisted(self):
        net = scoring_network(peer_count=10, seed=9)
        deliveries = net.collect_deliveries()
        net.start()
        net.run(2.0)
        army = SybilArmy(
            net, bot_count=6, rate_per_bot=2.0, shared_ip="198.51.100.9"
        )
        army.deploy()
        army.run(5.0)
        net.run(20.0)
        honest_spam = sum(
            sum(1 for m in msgs if m.startswith(b"SPAM"))
            for nid, msgs in deliveries.items()
            if nid not in set(army.bots)
        )
        assert honest_spam == 0  # colocation penalty catches naive Sybils

    def test_bots_are_not_removed_globally(self):
        """Even graylisted bots remain attached — no global removal,
        no financial cost: the paper's core critique."""
        net = scoring_network(peer_count=8, seed=10)
        net.start()
        net.run(2.0)
        army = SybilArmy(net, bot_count=3, shared_ip="198.51.100.9")
        army.deploy()
        army.run(3.0)
        net.run(10.0)
        for bot in army.bots:
            assert bot in net.network  # still connected, free to retry
