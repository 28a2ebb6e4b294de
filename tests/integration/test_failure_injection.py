"""Failure injection: loss, partitions, churn, chain stalls.

The protocol must stay safe (no false slashing, no spam admitted) and
eventually live under degraded conditions.
"""

from repro.core.config import ProtocolConfig
from repro.core.protocol import WakuRlnRelayNetwork
from repro.sim.latency import UniformLatency


def build(peer_count=12, seed=1, loss=0.0, **net_kwargs):
    latency = UniformLatency(
        base_seconds=0.03, spread_seconds=0.03, loss_probability=loss
    )
    net = WakuRlnRelayNetwork(
        peer_count=peer_count, seed=seed, latency=latency, **net_kwargs
    )
    net.register_all()
    deliveries = net.collect_deliveries()
    net.start()
    net.run(3.0)
    return net, deliveries


class TestLossyNetwork:
    def test_gossip_recovers_lost_messages(self):
        """With 20% loss, IHAVE/IWANT still achieves full coverage."""
        net, deliveries = build(peer_count=16, seed=5, loss=0.2)
        net.peer(0).publish(b"lossy hello")
        net.run(30.0)  # heartbeats carry IHAVE retries
        received = sum(
            1 for msgs in deliveries.values() if b"lossy hello" in msgs
        )
        assert received >= 15  # all peers (publisher included)

    def test_slashing_works_under_loss(self):
        net, _ = build(peer_count=12, seed=6, loss=0.15)
        spammer = net.peer(0)
        spammer.publish(b"l1")
        spammer.publish(b"l2", bypass_rate_limit=True)
        net.run(60.0)
        assert not net.contract.is_member(int(spammer.commitment.element))


class TestPartition:
    def test_partition_heals_and_message_spreads(self):
        net, deliveries = build(peer_count=10, seed=7, degree=None)  # full mesh
        ids = [p.node_id for p in net.peers]
        left, right = ids[:5], ids[5:]
        # Cut every cross link.
        for a in left:
            for b in right:
                net.network.disconnect(a, b)
        net.run(5.0)
        net.peer(0).publish(b"island message")
        net.run(10.0)
        right_got = sum(
            1 for nid in right if b"island message" in deliveries[nid]
        )
        assert right_got == 0  # partition is real
        # Heal one bridge; gossip (IHAVE window permitting) or at worst
        # the next publish crosses it.
        net.network.connect(left[0], right[0])
        net.run(10.0)
        net.peer(1).publish(b"after healing")
        net.run(20.0)
        right_after = sum(
            1 for nid in right if b"after healing" in deliveries[nid]
        )
        assert right_after == 5

    def test_no_false_slashing_across_partition(self):
        """Re-publishing the SAME message on both sides of a partition
        (e.g. by an overlay repairing itself) must never slash."""
        net, _ = build(peer_count=8, seed=8, degree=None)
        publisher = net.peer(0)
        publisher.publish(b"only message")
        net.run(30.0)
        assert net.contract.is_member(int(publisher.commitment.element))


class TestChurn:
    def test_crashed_peer_does_not_block_network(self):
        net, deliveries = build(peer_count=12, seed=9)
        victim = net.peer(3)
        victim.stop()
        net.network.detach(victim.node_id)
        net.run(5.0)
        net.peer(0).publish(b"post-crash")
        net.run(15.0)
        survivors = [
            p.node_id for p in net.peers if p.node_id != victim.node_id
        ]
        received = sum(
            1 for nid in survivors if b"post-crash" in deliveries[nid]
        )
        assert received == len(survivors)

    def test_restarted_peer_rejoins_via_sync(self):
        net, deliveries = build(peer_count=10, seed=10)
        victim = net.peer(2)
        neighbors = net.network.neighbors(victim.node_id)
        victim.stop()
        net.network.detach(victim.node_id)
        net.run(20.0)
        # Rejoin: reattach the same peer object, reconnect, re-announce.
        net.network.attach(victim.relay.router)
        for neighbor in neighbors:
            net.network.connect(victim.node_id, neighbor)
            victim.relay.router.announce_to(neighbor)
            net.peers[int(neighbor.split("-")[1])].relay.router.announce_to(
                victim.node_id
            )
        victim.start()
        victim.sync()
        net.run(10.0)
        net.peer(0).publish(b"welcome back")
        net.run(15.0)
        assert b"welcome back" in deliveries[victim.node_id]


class TestChainStall:
    def test_no_blocks_no_registration_but_relay_unaffected(self):
        """If the chain stalls, already-registered peers keep relaying."""
        config = ProtocolConfig()
        net = WakuRlnRelayNetwork(peer_count=8, seed=11, config=config)
        net.register_all()
        deliveries = net.collect_deliveries()
        net.start(mine_blocks=False)  # miner down
        net.run(5.0)
        net.peer(0).publish(b"chain is down")
        net.run(10.0)
        received = sum(
            1 for msgs in deliveries.values() if b"chain is down" in msgs
        )
        assert received == 8

    def test_slash_settles_once_mining_resumes(self):
        net = WakuRlnRelayNetwork(peer_count=8, seed=12)
        net.register_all()
        net.start(mine_blocks=False)
        net.run(3.0)
        spammer = net.peer(0)
        spammer.publish(b"m1")
        spammer.publish(b"m2", bypass_rate_limit=True)
        net.run(20.0)
        # Detected locally, but no block mined -> still on-chain member.
        assert net.contract.is_member(int(spammer.commitment.element))
        assert sum(p.slashes_submitted for p in net.peers) >= 1
        net.chain.mine_block(timestamp=net.simulator.now)
        net.run(10.0)  # peers sync the removal event
        assert not net.contract.is_member(int(spammer.commitment.element))
        assert not spammer.is_registered
