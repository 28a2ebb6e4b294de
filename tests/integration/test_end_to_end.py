"""End-to-end integration tests: register → sync → publish → route →
detect → slash, on a full simulated deployment."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.economics import build_report
from repro.core.protocol import WakuRlnRelayNetwork
from repro.crypto.zksnark.timing import DEFAULT_PERFORMANCE_MODEL
from repro.errors import RateLimitError, RegistrationError


@pytest.fixture
def deployment():
    net = WakuRlnRelayNetwork(peer_count=12, seed=42)
    net.register_all()
    deliveries = net.collect_deliveries()
    net.start()
    net.run(5.0)
    return net, deliveries


class TestRegistrationAndSync:
    def test_all_peers_registered(self, deployment):
        net, _ = deployment
        assert net.registered_count == 12
        assert net.contract.member_count() == 12

    def test_peers_agree_on_root(self, deployment):
        net, _ = deployment
        roots = {int(p.group.root) for p in net.peers}
        assert len(roots) == 1

    def test_late_joiner_catches_up(self, deployment):
        net, _ = deployment
        from repro.core.peer import WakuRlnRelayPeer

        late = WakuRlnRelayPeer(
            node_id="late-peer",
            network=net.network,
            chain=net.chain,
            contract_address=net.contract.address,
            config=net.config,
            proving_key=net.proving_key,
            verifying_key=net.verifying_key,
            rng=net.simulator.rng,
        )
        for existing in net.peers[:4]:
            net.network.connect("late-peer", existing.node_id)
        late.register()
        net.chain.mine_block(timestamp=net.simulator.now)
        late.sync()
        for peer in net.peers:
            peer.sync()
        assert late.is_registered
        assert int(late.group.root) == int(net.peer(0).group.root)

    def test_registration_required_to_publish(self):
        net = WakuRlnRelayNetwork(peer_count=4, seed=1)
        with pytest.raises(RegistrationError):
            net.peer(0).publish(b"too soon")


class TestHonestTraffic:
    def test_message_reaches_every_peer(self, deployment):
        net, deliveries = deployment
        net.peer(3).publish(b"hello from peer 3")
        net.run(10.0)
        assert all(
            b"hello from peer 3" in msgs for msgs in deliveries.values()
        )

    def test_one_message_per_epoch_enforced_locally(self, deployment):
        net, _ = deployment
        net.peer(0).publish(b"first")
        with pytest.raises(RateLimitError):
            net.peer(0).publish(b"second")

    def test_can_publish_again_next_epoch(self, deployment):
        net, deliveries = deployment
        net.peer(0).publish(b"epoch A")
        net.run(net.config.epoch_length + 1.0)
        net.peer(0).publish(b"epoch B")
        net.run(10.0)
        delivered_to_last = deliveries[net.peer(11).node_id]
        assert b"epoch A" in delivered_to_last
        assert b"epoch B" in delivered_to_last

    def test_multiple_concurrent_publishers(self, deployment):
        net, deliveries = deployment
        for i in range(6):
            net.peer(i).publish(f"msg-{i}".encode())
        net.run(10.0)
        for msgs in deliveries.values():
            for i in range(6):
                assert f"msg-{i}".encode() in msgs


class TestSpamDefence:
    def test_double_signal_slashes_spammer(self, deployment):
        net, _ = deployment
        spammer = net.peer(0)
        spammer.publish(b"spam 1")
        spammer.publish(b"spam 2", bypass_rate_limit=True)
        net.run(30.0)
        assert not spammer.is_registered  # removed from every local tree
        assert not net.contract.is_member(int(spammer.commitment.element))
        assert sum(p.slashes_submitted for p in net.peers) >= 1

    def test_spam_reach_is_bounded(self, deployment):
        """Each honest router accepts at most one of the two spam
        messages, so total spam deliveries cannot exceed one per peer."""
        net, deliveries = deployment
        spammer = net.peer(0)
        spammer.publish(b"spam A")
        spammer.publish(b"spam B", bypass_rate_limit=True)
        net.run(20.0)
        for node_id, msgs in deliveries.items():
            if node_id == spammer.node_id:
                continue
            spam_count = msgs.count(b"spam A") + msgs.count(b"spam B")
            assert spam_count <= 1, node_id

    def test_slash_economics(self):
        net = WakuRlnRelayNetwork(peer_count=12, seed=13)
        initial = {p.node_id: p.balance for p in net.peers}  # pre-stake
        net.register_all()
        net.start()
        net.run(5.0)
        spammer = net.peer(5)
        spammer.publish(b"x1")
        spammer.publish(b"x2", bypass_rate_limit=True)
        net.run(40.0)
        report = build_report(net.chain, net.contract, net.peers, initial)
        stake = net.config.stake_wei
        # The spammer lost its entire stake.
        assert report.ledger(spammer.node_id).net_flow == -stake
        # Exactly half was burnt, the other half rewarded one reporter
        # (who is still staked, hence net -stake/2 overall).
        assert report.total_burnt == stake // 2
        rewarded = [
            l for l in report.ledgers if l.net_flow == stake // 2 - stake
        ]
        assert len(rewarded) == 1
        # Everyone else is simply down their (still-registered) stake.
        others = [
            l
            for l in report.ledgers
            if l.node_id != spammer.node_id and l not in rewarded
        ]
        assert all(l.net_flow == -stake for l in others)

    def test_honest_peers_keep_their_stake(self, deployment):
        net, _ = deployment
        spammer = net.peer(0)
        spammer.publish(b"y1")
        spammer.publish(b"y2", bypass_rate_limit=True)
        net.run(40.0)
        for peer in net.peers[1:]:
            assert net.contract.is_member(int(peer.commitment.element))

    def test_slashed_peer_cannot_rejoin_with_same_key(self, deployment):
        net, _ = deployment
        spammer = net.peer(0)
        spammer.publish(b"z1")
        spammer.publish(b"z2", bypass_rate_limit=True)
        net.run(40.0)
        # Publishing again fails: no leaf in the tree.
        with pytest.raises(RegistrationError):
            spammer.publish(b"back again?")

    def test_duplicate_relay_is_not_punished(self, deployment):
        """Gossip duplicates of a single message must never slash."""
        net, _ = deployment
        honest = net.peer(2)
        honest.publish(b"only once")
        net.run(20.0)
        assert honest.is_registered
        assert net.contract.is_member(int(honest.commitment.element))


class TestStaleEpochReplay:
    def test_old_epoch_messages_dropped(self):
        config = ProtocolConfig(epoch_length=5.0, max_network_delay=10.0)
        net = WakuRlnRelayNetwork(peer_count=8, seed=7, config=config)
        net.register_all()
        deliveries = net.collect_deliveries()
        net.start()
        net.run(3.0)
        # Craft a signal for a long-past epoch directly with the prover.
        attacker = net.peer(0)
        net.run(60.0)  # clock now at epoch ~12
        stale_epoch = 2
        signal = attacker.prover.create_signal(
            b"replay", stale_epoch, attacker.group.merkle_proof(
                attacker.leaf_index
            ),
        )
        from repro.waku.message import WakuMessage

        attacker.relay.publish(
            WakuMessage(payload=b"replay", rate_limit_proof=signal.to_bytes())
        )
        net.run(15.0)
        for node_id, msgs in deliveries.items():
            if node_id != attacker.node_id:
                assert b"replay" not in msgs


class TestModeledCryptoLatency:
    def test_publish_delayed_by_proving_time(self):
        config = ProtocolConfig(model_crypto_latency=True)
        net = WakuRlnRelayNetwork(peer_count=6, seed=11, config=config)
        net.register_all()
        deliveries = net.collect_deliveries()
        net.start()
        net.run(3.0)
        start = net.simulator.now
        net.peer(0).publish(b"slow proof")
        net.run(0.1)
        others = [
            m for nid, m in deliveries.items() if nid != net.peer(0).node_id
        ]
        assert not any(b"slow proof" in msgs for msgs in others)
        net.run(10.0)
        arrival_counts = sum(
            1 for msgs in others if b"slow proof" in msgs
        )
        assert arrival_counts == 5
        prove_time = DEFAULT_PERFORMANCE_MODEL.prove_seconds(
            config.merkle_depth
        )
        assert prove_time > 0.2  # depth 20 is a sizeable circuit
        del start
