"""Integration-style tests of the GossipSub router on small networks."""

from repro.gossipsub.params import GossipSubParams
from repro.gossipsub.router import GossipSubRouter, ValidationResult
from repro.gossipsub.rpc import compute_message_id
from repro.net.network import Network
from repro.net.topology import connect_full_mesh, connect_random_regular
from repro.sim.latency import LatencyModel
from repro.sim.simulator import Simulator

TOPIC = "test-topic"


def build_network(
    n,
    degree=None,
    seed=1,
    params=None,
    score_params=None,
    latency=None,
):
    """n started routers on a connected overlay, all subscribed to TOPIC."""
    sim = Simulator(seed=seed)
    network = Network(
        simulator=sim, latency=latency or LatencyModel(base_seconds=0.02)
    )
    routers = [
        GossipSubRouter(
            f"r{i}", network, params=params, score_params=score_params
        )
        for i in range(n)
    ]
    ids = [r.node_id for r in routers]
    if degree is None:
        connect_full_mesh(network, ids)
    else:
        connect_random_regular(network, ids, degree, seed=seed)
    for router in routers:
        router.subscribe(TOPIC)
        for peer in router.peers():
            router.announce_to(peer)
        router.start()
    sim.run(until=5.0)  # let meshes form
    return sim, network, routers


class TestSubscription:
    def test_subscribe_announces_to_neighbors(self):
        sim, network, routers = build_network(3)
        for router in routers:
            for other in routers:
                if other is not router:
                    assert (
                        other.node_id in router.topic_peers.get(TOPIC, set())
                    )

    def test_mesh_forms_within_bounds(self):
        sim, network, routers = build_network(12, degree=6)
        for router in routers:
            mesh = router.mesh[TOPIC]
            assert len(mesh) >= 1
            assert len(mesh) <= router.params.d_hi

    def test_mesh_is_mutual_mostly(self):
        sim, network, routers = build_network(8)
        sim.run(until=20.0)
        by_id = {r.node_id: r for r in routers}
        mutual = 0
        total = 0
        for router in routers:
            for peer in router.mesh[TOPIC]:
                total += 1
                if router.node_id in by_id[peer].mesh[TOPIC]:
                    mutual += 1
        assert total > 0
        assert mutual / total > 0.8

    def test_unsubscribe_clears_mesh(self):
        sim, network, routers = build_network(4)
        routers[0].unsubscribe(TOPIC)
        sim.run(until=10.0)
        assert TOPIC not in routers[0].mesh
        for other in routers[1:]:
            assert routers[0].node_id not in other.mesh.get(TOPIC, set())


class TestPropagation:
    def test_full_mesh_delivery(self):
        sim, network, routers = build_network(6)
        got = []
        for router in routers:
            router.on_delivery(
                lambda t, payload, mid, frm, rid=router.node_id: got.append(rid)
            )
        routers[0].publish(TOPIC, b"hello world")
        sim.run_for(10.0)
        assert set(got) == {r.node_id for r in routers}

    def test_sparse_overlay_full_coverage(self):
        sim, network, routers = build_network(30, degree=6)
        delivered = set()
        for router in routers:
            router.on_delivery(
                lambda t, p, m, f, rid=router.node_id: delivered.add(rid)
            )
        routers[7].publish(TOPIC, b"broadcast")
        sim.run_for(10.0)
        assert delivered == {r.node_id for r in routers}

    def test_duplicates_are_suppressed(self):
        sim, network, routers = build_network(10, degree=4)
        counts = {r.node_id: 0 for r in routers}

        def record(rid):
            counts[rid] += 1

        for router in routers:
            router.on_delivery(
                lambda t, p, m, f, rid=router.node_id: record(rid)
            )
        routers[0].publish(TOPIC, b"once")
        sim.run_for(10.0)
        assert all(count == 1 for count in counts.values())

    def test_message_id_is_content_addressed(self):
        assert compute_message_id(TOPIC, b"x") == compute_message_id(TOPIC, b"x")
        assert compute_message_id(TOPIC, b"x") != compute_message_id(TOPIC, b"y")
        assert compute_message_id("t1", b"x") != compute_message_id("t2", b"x")

    def test_publisher_receives_own_message(self):
        sim, network, routers = build_network(3)
        got = []
        routers[0].on_delivery(lambda t, p, m, f: got.append(p))
        routers[0].publish(TOPIC, b"self")
        sim.run_for(2.0)
        assert got == [b"self"]


class TestLazyGossip:
    def test_ihave_iwant_recovers_missed_message(self):
        # Peer r2 is connected to r1 only; r1 -> r2 link is lossy at the
        # moment of publish, but gossip (IHAVE from a later heartbeat)
        # lets r2 recover the message.
        sim = Simulator(seed=5)
        network = Network(simulator=sim, latency=LatencyModel(base_seconds=0.02))
        params = GossipSubParams(d=2, d_lo=1, d_hi=4, d_lazy=4)
        routers = [
            GossipSubRouter(f"g{i}", network, params=params) for i in range(3)
        ]
        network.connect("g0", "g1")
        network.connect("g1", "g2")
        for router in routers:
            router.subscribe(TOPIC)
            for peer in router.peers():
                router.announce_to(peer)
            router.start()
        sim.run(until=3.0)
        # Inject the message directly into g0's cache as if published,
        # then sever g1<->g2 so the eager path cannot reach g2.
        network.disconnect("g1", "g2")
        routers[0].publish(TOPIC, b"gossip-me")
        sim.run(until=4.0)
        # Reconnect; IHAVE gossip in later heartbeats reaches g2.
        network.connect("g1", "g2")
        got = []
        routers[2].on_delivery(lambda t, p, m, f: got.append(p))
        sim.run(until=10.0)
        assert got == [b"gossip-me"]


class TestValidators:
    def test_reject_blocks_forwarding_and_penalises(self):
        sim, network, routers = build_network(5)
        for router in routers:
            router.add_validator(
                TOPIC,
                lambda topic, payload, frm: (
                    ValidationResult.REJECT
                    if payload.startswith(b"spam")
                    else ValidationResult.ACCEPT
                ),
            )
        delivered = []
        for router in routers[1:]:
            router.on_delivery(lambda t, p, m, f: delivered.append(p))
        routers[0].publish(TOPIC, b"spam spam spam")
        sim.run_for(5.0)
        assert delivered == []
        # Everyone who heard r0's message directly penalised it (P4).
        penalised = [
            r
            for r in routers[1:]
            if r.scores.score(routers[0].node_id, sim.now) < 0
        ]
        assert penalised

    def test_ignore_drops_without_penalty(self):
        sim, network, routers = build_network(4)
        for router in routers:
            router.add_validator(
                TOPIC, lambda topic, payload, frm: ValidationResult.IGNORE
            )
        routers[0].publish(TOPIC, b"meh")
        sim.run_for(5.0)
        for router in routers[1:]:
            assert router.scores.score(routers[0].node_id, sim.now) >= 0
        assert network.metrics.counter("gossipsub.rejected") == 0


class TestScoringIntegration:
    def test_graylisted_peer_is_ignored(self):
        sim, network, routers = build_network(4)
        victim, spammer = routers[0], routers[1]
        # Manually drive the spammer's score below the graylist threshold.
        for _ in range(10):
            victim.scores.reject_message(spammer.node_id, TOPIC)
        assert (
            victim.scores.score(spammer.node_id, sim.now)
            < victim.scores.params.graylist_threshold
        )
        before = network.metrics.counter("gossipsub.graylisted_rpc")
        spammer.publish(TOPIC, b"from-graylisted")
        sim.run_for(1.0)
        assert network.metrics.counter("gossipsub.graylisted_rpc") > before

    def test_first_delivery_improves_score(self):
        sim, network, routers = build_network(4)
        routers[1].publish(TOPIC, b"useful")
        sim.run_for(1.2)
        score = routers[0].scores.score(routers[1].node_id, sim.now)
        assert score > 0


class TestBackoff:
    def test_pruned_peer_not_regrafted_immediately(self):
        sim, network, routers = build_network(4)
        a, b = routers[0], routers[1]
        if b.node_id in a.mesh[TOPIC]:
            a._prune_peer(b.node_id, TOPIC)
        assert a._in_backoff(b.node_id, TOPIC)
        sim.run(until=sim.now + 5)
        assert b.node_id not in a.mesh[TOPIC] or not a._in_backoff(
            b.node_id, TOPIC
        )
