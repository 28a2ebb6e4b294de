"""Heartbeat bookkeeping edge cases and equivalence guarantees.

The O(changed) heartbeat must be *indistinguishable* from the
reference per-heartbeat sweeps (``sweep_oracle.py``): lazy score decay
replays the exact floating-point trajectory of the eager sweep, and
dirty-topic mesh maintenance only skips work it can prove is a no-op.
These tests pin the edges that touches: a mesh healing after a PRUNE's
backoff, which events dirty a subscribed topic (and that a topic only
a neighbour subscribes to is never maintained), backoff expiry
ordering, and eager-vs-lazy decay under random event interleavings.
"""

from __future__ import annotations

import random

import pytest

from repro.gossipsub.params import GossipSubParams
from repro.gossipsub.router import GossipSubRouter
from repro.gossipsub.rpc import RpcPacket
from repro.gossipsub.score import (
    PeerScoreParams,
    PeerScoreTracker,
    strict_topic_params,
)
from repro.net.network import Network
from repro.net.topology import connect_full_mesh
from repro.sim.simulator import Simulator
from sweep_oracle import EagerTracker, SweepRouter

TOPIC = "bk-topic"


def build_pair(seed=7, **params):
    sim = Simulator(seed=seed)
    network = Network(simulator=sim)
    a = GossipSubRouter("a", network, GossipSubParams(**params))
    b = GossipSubRouter("b", network, GossipSubParams(**params))
    network.connect("a", "b")
    return sim, network, a, b


class TestPrunedMeshHeals:
    def test_mesh_heals_after_a_received_prune_backoff(self):
        sim, network, a, b, _ = (*build_pair(), None)
        for router in (a, b):
            router.subscribe(TOPIC)
        a.deliver("b", RpcPacket(subscribe=[TOPIC]))
        a.deliver("b", RpcPacket(graft=[TOPIC]))
        assert "b" in a.mesh[TOPIC]
        a.deliver("b", RpcPacket(prune=[(TOPIC, a.params.prune_backoff)]))
        # b pruned us, so it is backoffed and the first heartbeat cannot
        # re-graft it...
        assert "b" not in a.mesh[TOPIC] and a._in_backoff("b", TOPIC)
        a.heartbeat()
        assert a.mesh[TOPIC] == set()
        # ...but the topic stays dirty (underfilled) and heals once the
        # backoff expires.
        assert TOPIC in a._dirty_topics
        sim.run_for(a.params.prune_backoff + 1.0)
        a.heartbeat()
        assert "b" in a.mesh[TOPIC]


class TestSubscribeLifecycle:
    def test_subscribe_dirties_topic_with_an_empty_mesh(self):
        sim, network, a, b, _ = (*build_pair(), None)
        a.subscribe(TOPIC)
        assert a.mesh[TOPIC] == set()
        assert TOPIC in a._dirty_topics

    def test_subscribe_is_idempotent(self):
        sim, network, a, b, _ = (*build_pair(), None)
        a.subscribe(TOPIC)
        a.deliver("b", RpcPacket(graft=[TOPIC]))
        a.heartbeat()
        queued = len(sim._queue)
        a.subscribe(TOPIC)
        # No second announcement, and the mesh is kept.
        assert len(sim._queue) == queued
        assert a.mesh[TOPIC] == {"b"}

    def test_foreign_topic_not_maintained(self):
        """A topic only a neighbour subscribes to gets no mesh."""
        sim, network, a, b, _ = (*build_pair(), None)
        b.subscribe(TOPIC)
        a.deliver("b", RpcPacket(subscribe=[TOPIC]))
        a.heartbeat()
        assert TOPIC not in a.mesh
        assert a._dirty_topics == ()

    def test_received_prune_of_meshed_peer_dirties_topic(self):
        sim, network, a, b, _ = (*build_pair(), None)
        a.subscribe(TOPIC)
        a.deliver("b", RpcPacket(graft=[TOPIC]))
        a.heartbeat()  # settle; mesh in bounds would go clean
        a._mark_clean(TOPIC)
        a.deliver("b", RpcPacket(prune=[(TOPIC, a.params.prune_backoff)]))
        assert "b" not in a.mesh[TOPIC]
        assert TOPIC in a._dirty_topics

    def test_link_down_of_meshed_peer_dirties_topic(self):
        sim, network, a, b, _ = (*build_pair(), None)
        a.subscribe(TOPIC)
        a.deliver("b", RpcPacket(graft=[TOPIC]))
        a.heartbeat()
        a._mark_clean(TOPIC)
        network.disconnect("a", "b")
        assert TOPIC in a._dirty_topics
        a.heartbeat()
        assert "b" not in a.mesh[TOPIC]


class TestBackoffExpiryOrdering:
    def test_backoffs_expire_in_order(self):
        sim, network, a, b, _ = (*build_pair(), None)
        a._set_backoff("p1", TOPIC, 10.0)
        a._set_backoff("p2", TOPIC, 20.0)
        a._set_backoff("p3", TOPIC, 30.0)
        sim.run_for(15.0)
        a._expire_backoffs()
        assert ("p1", TOPIC) not in a._backoff
        assert ("p2", TOPIC) in a._backoff
        assert ("p3", TOPIC) in a._backoff
        assert not a._in_backoff("p1", TOPIC)
        assert a._in_backoff("p2", TOPIC)

    def test_extended_backoff_survives_stale_heap_entry(self):
        sim, network, a, b, _ = (*build_pair(), None)
        a._set_backoff("p", TOPIC, 5.0)
        # A later PRUNE extends the backoff before the first expires.
        a._set_backoff("p", TOPIC, 50.0)
        sim.run_for(10.0)
        a._expire_backoffs()  # pops the stale 5 s heap entry
        assert a._in_backoff("p", TOPIC)
        sim.run_for(45.0)
        a._expire_backoffs()
        assert ("p", TOPIC) not in a._backoff

    def test_backoff_dict_does_not_grow_without_bound(self):
        sim, network, a, b, _ = (*build_pair(), None)
        for i in range(500):
            a._set_backoff(f"p{i}", TOPIC, 1.0)
        sim.run_for(2.0)
        a._expire_backoffs()
        assert len(a._backoff) == 0
        assert len(a._backoff_heap) == 0

    def test_expiry_boundary_is_exclusive(self):
        """A backoff is over exactly at its expiry time, as before."""
        sim, network, a, b, _ = (*build_pair(), None)
        a._set_backoff("p", TOPIC, 10.0)
        sim.run_for(10.0)
        assert not a._in_backoff("p", TOPIC)


def _random_events(rng, peers, topics, steps):
    """A random interleaving of score events and decay ticks."""
    events = []
    now = 0.0
    for _ in range(steps):
        kind = rng.choice(
            (
                "graft", "prune", "first", "dup", "reject",
                "behaviour", "decay", "decay", "score",
            )
        )
        peer = rng.choice(peers)
        topic = rng.choice(topics)
        now += rng.random()
        events.append((kind, peer, topic, now))
    return events


def _apply(tracker, events):
    """Replay events; return every probed score."""
    probes = []
    for kind, peer, topic, now in events:
        if kind == "graft":
            tracker.graft(peer, topic, now)
        elif kind == "prune":
            tracker.prune(peer, topic, now)
        elif kind == "first":
            tracker.first_message(peer, topic)
        elif kind == "dup":
            tracker.duplicate_message(peer, topic)
        elif kind == "reject":
            tracker.reject_message(peer, topic)
        elif kind == "behaviour":
            tracker.behaviour_penalty(peer)
        elif kind == "decay":
            tracker.decay()
        elif kind == "score":
            probes.append((peer, tracker.score(peer, now)))
    # Final materialisation of everyone.
    probes.extend(
        (peer, tracker.score(peer, now)) for peer in sorted(tracker._peers)
    )
    return probes


class TestDecayEquivalence:
    """Lazy (global-clock) decay == eager sweep, bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_interleavings(self, seed):
        rng = random.Random(seed)
        peers = [f"p{i}" for i in range(5)]
        topics = ["t0", "t1"]
        events = _random_events(rng, peers, topics, 300)
        params = PeerScoreParams()
        eager = _apply(EagerTracker(params), events)
        lazy = _apply(PeerScoreTracker(params), events)
        assert eager == lazy  # exact float equality, not approx

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleavings_strict_topics(self, seed):
        """Same, with the delivery-deficit penalties armed."""
        rng = random.Random(1000 + seed)
        peers = [f"p{i}" for i in range(4)]
        topics = ["strict", "normal"]
        events = _random_events(rng, peers, topics, 250)
        params = PeerScoreParams(
            topic_params={"strict": strict_topic_params(3.0)}
        )
        eager = _apply(EagerTracker(params), events)
        lazy = _apply(PeerScoreTracker(params), events)
        assert eager == lazy

    def test_idle_peer_decays_to_zero_identically(self):
        params = PeerScoreParams()
        eager = EagerTracker(params)
        lazy = PeerScoreTracker(params)
        for tracker in (eager, lazy):
            tracker.first_message("p", "t")
            tracker.behaviour_penalty("p", 3.0)
            for _ in range(1000):
                tracker.decay()
        assert eager.score("p") == lazy.score("p") == 0.0

    def test_suspect_set_clears_after_penalties_decay(self):
        tracker = PeerScoreTracker(PeerScoreParams())
        tracker.reject_message("p", "t")
        assert tracker.maybe_negative("p")
        for _ in range(200):
            tracker.decay()
        tracker.score("p")  # materialises and re-evaluates suspicion
        assert not tracker.maybe_negative("p")

    def test_non_suspect_never_scores_negative(self):
        """The invariant the router's fast path relies on."""
        rng = random.Random(99)
        peers = [f"p{i}" for i in range(6)]
        tracker = PeerScoreTracker(PeerScoreParams())
        events = _random_events(rng, peers, ["t"], 400)
        for kind, peer, topic, now in events:
            getattr_map = {
                "graft": lambda: tracker.graft(peer, topic, now),
                "prune": lambda: tracker.prune(peer, topic, now),
                "first": lambda: tracker.first_message(peer, topic),
                "dup": lambda: tracker.duplicate_message(peer, topic),
                "reject": lambda: tracker.reject_message(peer, topic),
                "behaviour": lambda: tracker.behaviour_penalty(peer),
                "decay": lambda: tracker.decay(),
                "score": lambda: tracker.score(peer, now),
            }
            getattr_map[kind]()
            for p in peers:
                if not tracker.maybe_negative(p):
                    assert tracker.score(p, now) >= 0.0


class TestModeEquivalenceEndToEnd:
    """Whole-overlay check: the O(changed) and the reference sweep
    heartbeats produce identical meshes, deliveries and scores on the
    same seed."""

    def _run(self, router_cls):
        sim = Simulator(seed=5)
        network = Network(simulator=sim)
        routers = [router_cls(f"r{i}", network) for i in range(12)]
        connect_full_mesh(network, [r.node_id for r in routers])
        topics = ["t0", "t1", "t2"]
        delivered = []
        for router in routers:
            for topic in topics:
                router.subscribe(topic)
            router.on_delivery(
                lambda t, p, m, f, nid=router.node_id: delivered.append(
                    (nid, t, m)
                )
            )
        for router in routers:
            router.start()
        sim.run_for(5.0)
        for i, router in enumerate(routers):
            router.publish(topics[i % 3], f"msg-{i}".encode())
            sim.run_for(1.0)
        # Churn one link mid-run; eviction must match across modes.
        network.disconnect("r0", "r1")
        sim.run_for(10.0)
        meshes = {
            r.node_id: {t: sorted(r.mesh.get(t, ())) for t in topics}
            for r in routers
        }
        scores = {
            r.node_id: {
                p: r.scores.score(p, sim.now) for p in sorted(r.scores._peers)
            }
            for r in routers
        }
        return sorted(delivered), meshes, scores

    def test_batched_equals_reference(self):
        assert self._run(GossipSubRouter) == self._run(SweepRouter)
