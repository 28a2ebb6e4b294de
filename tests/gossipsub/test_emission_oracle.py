"""Gossip emission against the code it replaced.

``GossipSubRouter._gossip_eligible_peers`` now drops the caller's mesh
*before* ranking, scores each surviving candidate once and sorts on a
C-level key, and ``_emit_gossip`` sends one IHAVE packet per topic to
its ``d_lazy`` targets in one ``Network.send`` call, counting the
fan-out once. The previous methods are kept below as the oracle — rank
every eligible topic peer, drop the mesh afterwards, one packet and one
single-target send per target. Fed the same router state through
``deliver``, both must send the same packets to the same peers in the
same order (one recorded entry per target of a batched send), deliver
the same packets, leave the same counters and mesh, and draw the same
entity RNG stream, heartbeat after heartbeat.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossipsub.params import GossipSubParams
from repro.gossipsub.router import GossipSubRouter
from repro.gossipsub.rpc import GossipMessage, RpcPacket, compute_message_id
from repro.gossipsub.score import PeerScoreParams, strict_topic_params
from repro.net.network import Network
from repro.sim.simulator import Simulator


class OracleRouter(GossipSubRouter):
    def _gossip_eligible_peers(self, topic, exclude=()):
        neighbors = self.network.neighbor_set(self.node_id)
        candidates = [
            peer
            for peer in sorted(self.topic_peers.get(topic, ()))
            if peer in neighbors
            and (
                not self.scores.maybe_negative(peer)
                or self.scores.score(peer, self.now)
                >= self.scores.params.gossip_threshold
            )
        ]
        candidates.sort(
            key=lambda p: self.scores.score(p, self.now), reverse=True
        )
        # The callers used to drop their mesh from the ranked list.
        return [peer for peer in candidates if peer not in exclude]

    def _emit_gossip(self):
        rng = self.network.simulator.entity_rng(self.node_id)
        for topic in sorted(self.subscriptions):
            msg_ids = self.mcache.gossip_ids(topic)
            if not msg_ids:
                continue
            mesh = self.mesh.get(topic, set())
            candidates = [
                peer
                for peer in self._gossip_eligible_peers(topic)
                if peer not in mesh
            ]
            rng.shuffle(candidates)
            for peer in candidates[: self.params.d_lazy]:
                self._send((peer,), RpcPacket(ihave={topic: list(msg_ids)}))


MESHED, STRICT = "meshed", "strict"
TOPICS = (MESHED, STRICT)
#: Below, at and above the gossip threshold (-10), and ties at 0 / 1.
#: One first delivery (P2 = 1) halves on each decay tick, so -10.5 and
#: -10.25 land exactly on the threshold after one or two heartbeats.
APP_SCORES = (-30.0, -10.5, -10.25, -10.0, -4.0, 0.0, 0.0, 1.0, 1.0, 3.0)
PARAMS = GossipSubParams(
    d=3, d_lo=2, d_hi=4, d_score=2, d_lazy=3,
    flood_publish=False, full_sweep_interval=2,
)
SCORE_PARAMS = PeerScoreParams(topic_params={STRICT: strict_topic_params()})


class _Stub:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def deliver(self, from_peer, packet):
        self.received.append((from_peer, packet))


class World:
    """The router under test and its recorded outbound traffic."""

    def __init__(self, router_cls, peers):
        self.sim = Simulator(seed=3)
        self.network = Network(self.sim)
        self.router = router_cls(
            "subject", self.network, PARAMS, score_params=SCORE_PARAMS
        )
        self.sent = []
        self.stubs = []
        send = self.network.send

        def recording_send(sender, receivers, packet):
            self.sent.extend((receiver, packet) for receiver in receivers)
            return send(sender, receivers, packet)

        self.network.send = recording_send
        router = self.router
        router.subscribe(MESHED)
        router.subscribe(STRICT)
        for i, (topics, meshes, app_score, backoffs) in enumerate(peers):
            peer = f"n{i}"
            self.stubs.append(_Stub(peer))
            self.network.attach(self.stubs[-1])
            self.network.connect("subject", peer)
            router.deliver(peer, RpcPacket(subscribe=sorted(topics)))
            router.deliver(peer, RpcPacket(graft=sorted(meshes & topics)))
            router.scores.set_app_score(peer, app_score)
            for topic in sorted(backoffs):
                router._set_backoff(peer, topic, 3.0)
            for topic in sorted(topics):
                self.receive(peer, topic, i)
        for topic in TOPICS:
            router.publish(topic, b"own %s" % topic.encode())

    def receive(self, peer, topic, number):
        payload = b"%s %d" % (topic.encode(), number)
        message = GossipMessage(
            compute_message_id(topic, payload), topic, payload
        )
        self.router.deliver(peer, RpcPacket(publish=[message]))

    def state(self):
        router = self.router
        return {
            "sent": list(self.sent),
            "received": [list(stub.received) for stub in self.stubs],
            "counters": dict(self.network.metrics.counters),
            "mesh": {t: sorted(m) for t, m in router.mesh.items()},
            "rng": self.sim.entity_rng("subject").getstate(),
        }


PEER_STATE = st.tuples(
    st.sets(st.sampled_from(TOPICS)),
    st.sets(st.sampled_from((MESHED, STRICT))),
    st.sampled_from(APP_SCORES),
    st.sets(st.sampled_from((MESHED, STRICT))),
)
#: Between heartbeats: a score change, a new message, or nothing.
EVENTS = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.one_of(st.sampled_from(APP_SCORES), st.sampled_from(TOPICS)),
    ),
    max_size=2,
)


@settings(max_examples=150, deadline=None)
@given(
    peers=st.lists(PEER_STATE, max_size=10),
    rounds=st.lists(EVENTS, min_size=1, max_size=4),
)
def test_emission_equals_the_parent_path(peers, rounds):
    fast, oracle = World(GossipSubRouter, peers), World(OracleRouter, peers)
    assert fast.state() == oracle.state()
    for number, events in enumerate(rounds):
        for world in (fast, oracle):
            for index, event in events:
                if index >= len(peers):
                    continue
                if isinstance(event, float):
                    world.router.scores.set_app_score(f"n{index}", event)
                else:
                    world.receive(f"n{index}", event, 100 + number)
            world.sim.run(until=world.sim.now + 1.0)
            world.router.heartbeat()
        assert fast.state() == oracle.state(), number


def test_one_packet_per_topic_fans_out_to_d_lazy_peers():
    peers = [({MESHED}, set(), 0.0, set())] * 8
    fast, oracle = World(GossipSubRouter, peers), World(OracleRouter, peers)
    for world in (fast, oracle):
        world.sent.clear()
        world.router.heartbeat()
    ihaves = [(peer, p) for peer, p in fast.sent if p.ihave]
    assert len(ihaves) == PARAMS.d_lazy
    assert len({id(packet) for _, packet in ihaves}) == 1  # one object
    assert ihaves == [(peer, p) for peer, p in oracle.sent if p.ihave]
    assert fast.state() == oracle.state()
