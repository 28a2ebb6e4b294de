"""The flattened inbound path against the code it replaced.

``GossipSubRouter.deliver`` is now the whole inbound path in one frame:
it probes the tracker for an unknown peer instead of calling
``add_peer``, tests seen-ness itself and drops a duplicate without
another router frame, and skips the control fields of a publish-only
packet. A first delivery reaches the topic's validator directly, and
``_forward`` sends one fan-out through one ``Network.send`` call,
counted once. ``PeerScoreTracker.duplicate_message`` / ``add_peer``
skip frames that were no-ops. The previous ``deliver`` / ``_process``
/ ``_handle_publish`` / ``_validate`` / per-target ``_forward`` and
``_send`` and the previous tracker methods are kept below as the
oracle: fed the same packets through ``deliver``, both must leave the
same counters, score state, suspects, kernel queue and outbound traffic
(one entry per delivered target) after every step.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GossipError
from repro.gossipsub.router import GossipSubRouter, ValidationResult
from repro.gossipsub.rpc import GossipMessage, RpcPacket, compute_message_id
from repro.gossipsub.score import (
    PeerScoreParams,
    PeerScoreTracker,
    TopicScoreParams,
)
from repro.net.network import Network
from repro.sim.latency import LatencyModel
from repro.sim.simulator import Simulator
from sweep_oracle import EagerTracker, fresh_scores, memo_scores


class OracleTracker(PeerScoreTracker):
    def add_peer(self, peer, ip=None):
        stats = self._stats(peer)
        if ip is not None:
            self._assign_ip(peer, stats, ip)

    def duplicate_message(self, peer, topic):
        stats = self._peers.get(peer)
        topics = stats.topics if stats is not None else ()
        tstats = next((t for t in topics if t.topic == topic), None)
        if tstats is None or not tstats.in_mesh:
            return
        stats.memo = None
        params = self.params.for_topic(topic)
        self._materialize_topic(tstats, params)
        tstats.mesh_message_deliveries = min(
            tstats.mesh_message_deliveries + 1,
            params.mesh_message_deliveries_cap,
        )


class EagerOracleTracker(OracleTracker, EagerTracker):
    pass


class OracleRouter(GossipSubRouter):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scores = OracleTracker(self.scores.params)

    def deliver(self, from_peer, packet):
        if not isinstance(packet, RpcPacket):
            raise GossipError(
                f"unexpected packet type {type(packet).__name__}"
            )
        if self.processing_delay > 0 and packet.publish:
            self.network.simulator.schedule(
                self.processing_delay,
                lambda _sim: self._process(from_peer, packet),
                label=f"validate:{self.node_id}",
                shard=self.node_id,
            )
            return
        self._process(from_peer, packet)

    def _process(self, from_peer, packet):
        self.scores.add_peer(from_peer)
        if self.scores.maybe_negative(from_peer) and (
            self.scores.score(from_peer, self.now)
            < self.scores.params.graylist_threshold
        ):
            self._counters["gossipsub.graylisted_rpc"] += 1
            return
        for topic in packet.subscribe:
            self.topic_peers.setdefault(topic, set()).add(from_peer)
        for message in packet.publish:
            self._handle_publish(message, from_peer)
        if packet.ihave:
            self._handle_ihave(packet.ihave, from_peer)
        if packet.iwant:
            self._handle_iwant(packet.iwant, from_peer)
        for topic in packet.graft:
            self._handle_graft(topic, from_peer)
        for topic, backoff in packet.prune:
            self._handle_prune(
                topic, from_peer, backoff, packet.px.get(topic, [])
            )

    def _handle_publish(self, message, from_peer):
        topic = message.topic
        counters = self._counters
        counters["gossipsub.received"] += 1
        if self.seen.witness(message.msg_id, self.now):
            self.scores.duplicate_message(from_peer, topic)
            counters["gossipsub.duplicates"] += 1
            return
        result = self._validate(message, from_peer)
        if result is ValidationResult.REJECT:
            self.scores.reject_message(from_peer, topic)
            counters["gossipsub.rejected"] += 1
            return
        if result is ValidationResult.IGNORE:
            counters["gossipsub.ignored"] += 1
            return
        self.scores.first_message(from_peer, topic)
        self.mcache.put(message)
        self._deliver_locally(message, from_peer)
        self._forward_each(message, exclude={from_peer})

    def _validate(self, message, from_peer):
        validator = self.validators.get(message.topic)
        if validator is None:
            return ValidationResult.ACCEPT
        return validator(message.topic, message.payload, from_peer)

    def _forward_each(self, message, exclude):
        targets = set(self.mesh.get(message.topic, set())) - exclude
        if not targets:
            return
        packet = RpcPacket(publish=[message])
        size = packet.size_bytes
        for peer in sorted(targets):
            self._send_one(peer, packet, size)

    def _send_one(self, peer, packet, size: Optional[int] = None):
        counters = self.metrics.counters
        counters["gossipsub.rpc_sent"] += 1
        counters["gossipsub.bytes_sent"] += (
            packet.size_bytes if size is None else size
        )
        self.network.send(self.node_id, [peer], packet)


PLAIN, STRICT = "plain-topic", "strict-topic"
TOPICS = (PLAIN, STRICT)
PEERS = tuple(f"n{i}" for i in range(5))
#: The strict topic arms P3 / P3b (suspects on graft, a deficit on
#: prune) and caps mesh deliveries low enough for a test to reach.
SCORE_PARAMS = PeerScoreParams(
    topic_params={
        STRICT: TopicScoreParams(
            mesh_message_deliveries_weight=-1.0,
            mesh_message_deliveries_threshold=1.0,
            mesh_message_deliveries_cap=3.0,
            mesh_message_deliveries_activation=1.0,
            mesh_failure_penalty_weight=-1.0,
        )
    }
)


def _verdict(_topic, payload, _from_peer):
    number = payload[-1]
    if number % 7 == 0:
        return ValidationResult.REJECT
    if number % 5 == 0:
        return ValidationResult.IGNORE
    return ValidationResult.ACCEPT


class _Stub:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def deliver(self, from_peer, packet):
        self.received.append((from_peer, packet))


class World:
    """One router under test among five recording neighbours."""

    def __init__(self, router_cls):
        self.sim = Simulator(seed=5)
        self.network = Network(
            self.sim, latency=LatencyModel(base_seconds=0.05)
        )
        self.router = router_cls(
            "subject", self.network, score_params=SCORE_PARAMS
        )
        self.delivered = []
        self.scored = []
        self.router.on_delivery(
            lambda topic, payload, msg_id, frm: self.delivered.append(
                (topic, msg_id, frm)
            )
        )
        self.stubs = [_Stub(peer) for peer in PEERS]
        for stub in self.stubs:
            self.network.attach(stub)
            self.network.connect("subject", stub.node_id)
        for topic in TOPICS:
            self.router.subscribe(topic)
            self.router.add_validator(topic, _verdict)
            # Start from a three-member mesh, so most first deliveries
            # fan out to more than one target.
            for peer in PEERS[:3]:
                self.apply(("graft", peer, topic, None))

    def apply(self, step):
        kind, peer, topic, numbers = step
        router = self.router
        if kind == "publish":
            messages = []
            for number in numbers:
                payload = bytes([len(topic), number])
                messages.append(
                    GossipMessage(
                        compute_message_id(topic, payload), topic, payload
                    )
                )
            router.deliver(peer, RpcPacket(publish=messages))
        elif kind == "graft":
            router.deliver(peer, RpcPacket(subscribe=[topic], graft=[topic]))
        elif kind == "prune":
            router.deliver(peer, RpcPacket(prune=[(topic, 1.0)]))
        elif kind == "cut":
            self.network.disconnect("subject", peer)
        elif kind == "link":
            self.network.connect("subject", peer)
        elif kind == "app_score":
            router.scores.set_app_score(peer, -50.0 * numbers[0])
        elif kind == "scores":
            # Only when a step asks: score() materialises every lazy
            # counter, which would hide a missed decay replay.
            scores = router.scores
            self.scored.append(
                [scores.score(p, self.sim.now) for p in PEERS]
            )
        elif kind == "tick":
            # A decay tick a second later; in-flight packets land.
            self.sim.run(until=self.sim.now + 1.0)
            router.heartbeat()

    def state(self):
        scores = self.router.scores
        now_scores = fresh_scores(scores, PEERS, self.sim.now)
        assert memo_scores(scores, PEERS, self.sim.now) == now_scores
        return {
            "counters": dict(self.network.metrics.counters),
            "stats": {p: asdict(s) for p, s in scores._peers.items()},
            "scores": now_scores,
            "suspects": set(scores.suspects()),
            "mesh": {t: set(m) for t, m in self.router.mesh.items()},
            "seen": list(self.router.seen._expiry.items()),
            "delivered": list(self.delivered),
            "scored": list(self.scored),
            "outbound": [stub.received for stub in self.stubs],
            "kernel": (
                self.sim.now,
                self.sim.events_processed,
                len(self.sim._queue),
            ),
        }


PEER = st.sampled_from(PEERS)
TOPIC = st.sampled_from(TOPICS)
NUMBERS = st.lists(st.integers(1, 12), min_size=1, max_size=3)
STEPS = st.one_of(
    st.tuples(st.just("publish"), PEER, TOPIC, NUMBERS),
    st.tuples(st.just("publish"), PEER, TOPIC, NUMBERS),
    st.tuples(st.just("publish"), PEER, TOPIC, NUMBERS),
    st.tuples(st.just("graft"), PEER, TOPIC, st.none()),
    st.tuples(st.just("prune"), PEER, TOPIC, st.none()),
    st.tuples(st.just("cut"), PEER, st.none(), st.none()),
    st.tuples(st.just("link"), PEER, st.none(), st.none()),
    st.tuples(
        st.just("app_score"),
        PEER,
        st.none(),
        st.lists(st.integers(0, 2), min_size=1, max_size=1),
    ),
    st.tuples(st.just("scores"), st.none(), st.none(), st.none()),
    st.tuples(st.just("tick"), st.none(), st.none(), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(STEPS, max_size=50))
def test_same_state_as_the_parent_path_after_every_step(steps):
    fast, oracle = World(GossipSubRouter), World(OracleRouter)
    assert fast.state() == oracle.state()
    for step in steps:
        fast.apply(step)
        oracle.apply(step)
        assert fast.state() == oracle.state(), step
    for world in (fast, oracle):
        world.apply(("scores", None, None, None))
    assert fast.state() == oracle.state()


TRACKER_OPS = st.one_of(
    st.tuples(st.just("duplicate_message"), PEER, TOPIC),
    st.tuples(st.just("duplicate_message"), PEER, TOPIC),
    st.tuples(st.just("first_message"), PEER, TOPIC),
    st.tuples(st.just("reject_message"), PEER, TOPIC),
    st.tuples(st.just("graft"), PEER, TOPIC),
    st.tuples(st.just("prune"), PEER, TOPIC),
    st.tuples(st.just("add_peer"), PEER, st.none()),
    st.tuples(st.just("decay"), st.none(), st.none()),
    st.tuples(st.just("decay"), st.none(), st.none()),
    st.tuples(st.just("score"), PEER, st.none()),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(TRACKER_OPS, max_size=60), eager=st.booleans())
def test_tracker_events_match_the_parent_tracker(ops, eager):
    """The tracker alone, where nothing scores (and so materialises) a
    peer between a decay tick and its next duplicate."""
    fast = (EagerTracker if eager else PeerScoreTracker)(SCORE_PARAMS)
    oracle = (EagerOracleTracker if eager else OracleTracker)(SCORE_PARAMS)
    now = 0.0
    for name, peer, topic in ops:
        now += 0.25
        results = []
        for tracker in (fast, oracle):
            if name == "decay":
                results.append(tracker.decay())
            elif name == "add_peer":
                results.append(tracker.add_peer(peer))
            elif name == "score":
                results.append(tracker.score(peer, now))
            elif name in ("graft", "prune"):
                results.append(getattr(tracker, name)(peer, topic, now))
            else:
                results.append(getattr(tracker, name)(peer, topic))
        assert results[0] == results[1]
        assert {p: asdict(s) for p, s in fast._peers.items()} == {
            p: asdict(s) for p, s in oracle._peers.items()
        }, (name, peer, topic)
        fresh = fresh_scores(fast, PEERS, now)
        assert fresh == fresh_scores(oracle, PEERS, now)
        assert memo_scores(fast, PEERS, now) == fresh
        assert fast.suspects() == oracle.suspects()
    assert [fast.score(p, now) for p in PEERS] == [
        oracle.score(p, now) for p in PEERS
    ]


def _script(world, steps):
    for step in steps:
        world.apply(step)
    return world


def test_mesh_duplicates_count_up_to_the_cap_and_not_beyond():
    steps = [("publish", "n1", STRICT, [1])]
    steps += [("publish", "n0", STRICT, [1])] * 5
    fast = _script(World(GossipSubRouter), steps)
    oracle = _script(World(OracleRouter), steps)
    (tstats,) = [
        t for t in fast.router.scores._peers["n0"].topics if t.topic == STRICT
    ]
    assert tstats.mesh_message_deliveries == 3.0  # the cap, not 5
    assert fast.network.metrics.counter("gossipsub.duplicates") == 5
    assert fast.state() == oracle.state()
    # Across a decay tick the bump lands on the replayed counter.
    for world in (fast, oracle):
        world.router.scores.decay()
        world.apply(("publish", "n0", STRICT, [1]))
    assert tstats.tick == 1
    assert tstats.mesh_message_deliveries == 2.5  # 3 * 0.5 + 1
    assert fast.state() == oracle.state()


def test_fan_out_counts_a_member_whose_link_was_cut():
    steps = [
        ("cut", "n1", None, None),  # still in the mesh until a heartbeat
        ("publish", "n0", PLAIN, [1]),
    ]
    fast = _script(World(GossipSubRouter), steps)
    oracle = _script(World(OracleRouter), steps)
    counter = fast.network.metrics.counter
    before = _script(World(GossipSubRouter), steps[:-1]).network.metrics
    # Two fan-out targets (n1, n2), both counted; only n2's was sent.
    assert counter("gossipsub.rpc_sent") - before.counter(
        "gossipsub.rpc_sent"
    ) == 2
    assert counter("net.send_no_link") == 1
    assert counter("net.packets_sent") - before.counter(
        "net.packets_sent"
    ) == 1
    assert fast.state() == oracle.state()


def test_graylisted_sender_is_dropped_before_the_seen_cache():
    steps = [
        ("app_score", "n3", None, [2]),  # -100 < graylist threshold -80
        ("publish", "n3", PLAIN, [1, 2]),
        ("publish", "n4", PLAIN, [1]),
    ]
    fast = _script(World(GossipSubRouter), steps)
    oracle = _script(World(OracleRouter), steps)
    counter = fast.network.metrics.counter
    assert counter("gossipsub.graylisted_rpc") == 1
    assert counter("gossipsub.received") == 1  # n4's, a first delivery
    assert counter("gossipsub.duplicates") == 0
    assert fast.state() == oracle.state()
