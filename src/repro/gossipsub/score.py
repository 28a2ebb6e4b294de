"""GossipSub v1.1 peer scoring.

The paper's Section I argues that scoring — the spam defence GossipSub
itself ships — is "prone to censorship and inexpensive attacks where
millions of bots can be deployed". To make that comparison honest, this
is a real implementation of the published score function:

    score(p) = sum_t w_t * (P1 + P2 + P3 + P3b + P4)_t  +  P5 + P6 + P7

with the usual components: time in mesh (P1), first-message deliveries
(P2), mesh-delivery deficit (P3), mesh-failure penalty (P3b), invalid
messages (P4), application-specific score (P5), IP colocation (P6) and
behavioural penalty (P7). Counters decay multiplicatively on every
decay tick, as in the reference implementation.

Decay bookkeeping
-----------------

:meth:`PeerScoreTracker.decay` only advances a global tick counter; a
peer's counters are materialised on first access by replaying the
missed ticks (repeated multiplication with the same zero-floor check a
per-tick sweep applies, so the floating-point trajectory is exactly the
sweep's). Heartbeat cost is O(1) instead of O(peers x topics); the
eager sweep survives as a test oracle.

The tracker also maintains a conservative *suspect set*: peers whose
score **could** be negative (they carry a penalty counter, a negative
app score, a colocated IP, or sit in the mesh of a topic whose
delivery-deficit penalty is armed). A peer absent from the set provably
scores >= 0, which lets the router skip the per-topic negative-score
sweep for meshes containing no suspects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, Optional, Set, Tuple

from ..net.network import NodeId


@dataclass(frozen=True)
class TopicScoreParams:
    """Per-topic weights.

    As in libp2p, the delivery-deficit components (P3/P3b) default to
    weight 0 — they punish *silence*, which only makes sense on topics
    with a known steady message rate; enabling them on an idle topic
    dissolves healthy meshes. :func:`strict_topic_params` builds a
    configuration with them enabled for high-traffic experiments.

    Units: ``time_in_mesh_quantum`` and ``time_in_mesh_cap`` are in
    simulated seconds; delivery counters are message counts; decay
    factors are per decay tick (one router heartbeat).
    """

    topic_weight: float = 1.0
    # P1 — time in mesh
    time_in_mesh_weight: float = 0.01
    time_in_mesh_quantum: float = 1.0
    time_in_mesh_cap: float = 3600.0
    # P2 — first message deliveries
    first_message_deliveries_weight: float = 1.0
    first_message_deliveries_decay: float = 0.5
    first_message_deliveries_cap: float = 2000.0
    # P3 — mesh message delivery deficit (squared, negative weight)
    mesh_message_deliveries_weight: float = 0.0
    mesh_message_deliveries_decay: float = 0.5
    mesh_message_deliveries_cap: float = 100.0
    mesh_message_deliveries_threshold: float = 1.0
    mesh_message_deliveries_activation: float = 5.0
    # P3b — failure penalty carried out of the mesh (squared, negative)
    mesh_failure_penalty_weight: float = 0.0
    mesh_failure_penalty_decay: float = 0.5
    # P4 — invalid messages (squared, negative weight)
    invalid_message_deliveries_weight: float = -10.0
    invalid_message_deliveries_decay: float = 0.9

    @property
    def strict(self) -> bool:
        """True when the in-mesh delivery-deficit penalty (P3) is armed:
        a silent mesh member can then go negative with no score *event*,
        so such topics are exempt from suspect-set fast paths."""
        return self.mesh_message_deliveries_weight < 0


def strict_topic_params(
    expected_rate_per_decay: float = 1.0,
) -> TopicScoreParams:
    """Topic params with the delivery-deficit penalties armed.

    Use on topics with sustained traffic (the spam-attack experiments),
    where a mesh peer that never forwards anything should lose score.
    """
    return TopicScoreParams(
        mesh_message_deliveries_weight=-1.0,
        mesh_message_deliveries_threshold=expected_rate_per_decay,
        mesh_failure_penalty_weight=-1.0,
    )


@dataclass(frozen=True)
class PeerScoreParams:
    """Router-wide scoring parameters and thresholds.

    Thresholds are compared against the *total* peer score:
    ``gossip_threshold`` gates IHAVE/IWANT exchange,
    ``publish_threshold`` gates flood-publish targets, and
    ``graylist_threshold`` drops entire RPCs. All are <= 0; a peer with
    no history scores exactly 0.
    """

    topic_params: Dict[str, TopicScoreParams] = field(default_factory=dict)
    default_topic_params: TopicScoreParams = field(
        default_factory=TopicScoreParams
    )
    app_specific_weight: float = 1.0
    # P6 — IP colocation
    ip_colocation_factor_weight: float = -5.0
    ip_colocation_factor_threshold: int = 1
    # P7 — behavioural penalty (GRAFT flood etc.)
    behaviour_penalty_weight: float = -10.0
    behaviour_penalty_decay: float = 0.99
    behaviour_penalty_threshold: float = 0.0
    decay_interval: float = 1.0
    #: Counters below this are zeroed to stop asymptotic dribble.
    decay_to_zero: float = 0.01
    # thresholds
    gossip_threshold: float = -10.0
    publish_threshold: float = -50.0
    graylist_threshold: float = -80.0
    #: Minimum sender score for accepting Peer Exchange suggestions.
    accept_px_threshold: float = 0.0
    opportunistic_graft_threshold: float = 1.0

    def for_topic(self, topic: str) -> TopicScoreParams:
        return self.topic_params.get(topic, self.default_topic_params)


#: What a router given no params reads: one shared, frozen copy.
DEFAULT_SCORE_PARAMS = PeerScoreParams()


def _decay_steps(
    value: float, factor: float, steps: int, floor: float
) -> float:
    """Replay ``steps`` decay ticks on ``value``.

    Repeated multiplication (not ``factor ** steps``) so the result is
    bit-identical to the eager per-tick sweep, including the
    zero-floor cut at the exact tick the sweep would apply it. Callers
    pass a non-zero ``value`` and ``steps > 0``: zero decays to itself.
    """
    if factor == 1.0:
        return 0.0 if value < floor else value
    for _ in range(steps):
        value *= factor
        if value < floor:
            return 0.0
    return value


@dataclass(slots=True)
class _TopicStats:
    """Per-(peer, topic) counters. ``tick`` is the decay tick the
    decaying counters were last materialised at."""

    topic: str
    in_mesh: bool = False
    graft_time: float = 0.0
    mesh_time: float = 0.0
    first_message_deliveries: float = 0.0
    mesh_message_deliveries: float = 0.0
    mesh_failure_penalty: float = 0.0
    invalid_message_deliveries: float = 0.0
    tick: int = 0


@dataclass(slots=True)
class _PeerStats:
    #: In first-event order: a tuple is a quarter of a one-key dict.
    topics: Tuple[_TopicStats, ...] = ()
    behaviour_penalty: float = 0.0
    behaviour_tick: int = 0
    app_score: float = 0.0
    ip: Optional[str] = None
    #: (now, tick, score, now_dependent, decaying): the last score. A
    #: score is a pure function of (peer state, IP group size, now,
    #: decay tick), read in bursts between events (graylist gates, sort
    #: keys). An event drops the memos whose inputs it changed: its own
    #: peer's, plus an IP group's on a colocation change. A memo with no
    #: in-mesh topic holds for any ``now``, and one with no non-zero
    #: decaying counter for any tick.
    memo: Optional[tuple] = None


#: The suspect set of a tracker with no suspects: shared, read-only.
_NO_SUSPECTS: FrozenSet[NodeId] = frozenset()


class PeerScoreTracker:
    """Maintains live score state for every known peer, with the
    global-clock decay described in the module docstring."""

    def __init__(self, params: PeerScoreParams) -> None:
        self.params = params
        self._peers: Dict[NodeId, _PeerStats] = {}
        #: Global decay clock; one tick per :meth:`decay` call.
        self._tick = 0
        #: ip -> peers sharing it (P6 is O(1) per score with this index).
        self._ip_peers: Dict[str, Set[NodeId]] = {}
        #: Conservative superset of peers whose score may be negative;
        #: a set of its own only while it is not empty.
        self._suspects: AbstractSet[NodeId] = _NO_SUSPECTS

    # -- peer lifecycle -------------------------------------------------------

    def add_peer(self, peer: NodeId, ip: Optional[str] = None) -> None:
        # Called per inbound RPC: a known peer costs one dict probe.
        if ip is not None:
            self._assign_ip(peer, self._stats(peer), ip)
        elif peer not in self._peers:
            self._stats(peer)

    def _stats(self, peer: NodeId) -> _PeerStats:
        stats = self._peers.get(peer)
        if stats is None:
            stats = self._peers[peer] = _PeerStats(
                behaviour_tick=self._tick
            )
        return stats

    def _topic_stats(self, peer: NodeId, topic: str) -> _TopicStats:
        """Materialised per-topic stats (decay replayed up to now) for
        an event that changes them: the peer's memo is dropped."""
        stats = self._stats(peer)
        stats.memo = None
        for tstats in stats.topics:
            if tstats.topic == topic:
                self._materialize_topic(tstats, self.params.for_topic(topic))
                return tstats
        tstats = _TopicStats(topic, tick=self._tick)
        stats.topics += (tstats,)
        return tstats

    # -- decay ------------------------------------------------------------------------

    def _materialize_topic(
        self, tstats: _TopicStats, params: TopicScoreParams
    ) -> None:
        steps = self._tick - tstats.tick
        if steps <= 0:
            return
        floor = self.params.decay_to_zero
        # A zero counter decays to itself: no frame for it.
        if value := tstats.first_message_deliveries:
            tstats.first_message_deliveries = _decay_steps(
                value, params.first_message_deliveries_decay, steps, floor
            )
        if value := tstats.mesh_message_deliveries:
            tstats.mesh_message_deliveries = _decay_steps(
                value, params.mesh_message_deliveries_decay, steps, floor
            )
        if value := tstats.mesh_failure_penalty:
            tstats.mesh_failure_penalty = _decay_steps(
                value, params.mesh_failure_penalty_decay, steps, floor
            )
        if value := tstats.invalid_message_deliveries:
            tstats.invalid_message_deliveries = _decay_steps(
                value, params.invalid_message_deliveries_decay, steps, floor
            )
        tstats.tick = self._tick

    def _materialize_behaviour(self, stats: _PeerStats) -> None:
        steps = self._tick - stats.behaviour_tick
        if steps > 0:
            if stats.behaviour_penalty:
                params = self.params
                stats.behaviour_penalty = _decay_steps(
                    stats.behaviour_penalty, params.behaviour_penalty_decay,
                    steps, params.decay_to_zero,
                )
            stats.behaviour_tick = self._tick

    def decay(self) -> None:
        """Advance the decay clock by one tick (O(1): counters catch up
        when next read)."""
        self._tick += 1

    # -- mesh events --------------------------------------------------------------

    def graft(self, peer: NodeId, topic: str, now: float) -> None:
        stats = self._topic_stats(peer, topic)
        stats.in_mesh = True
        stats.graft_time = now
        if self.params.for_topic(topic).strict:
            # A silent mesh member on a strict topic can go negative
            # with no further events; keep it under suspicion while
            # (and after) it sits in this mesh.
            self._suspect(peer)

    def prune(self, peer: NodeId, topic: str, now: float) -> None:
        """Peer leaves the mesh; a delivery deficit becomes P3b."""
        params = self.params.for_topic(topic)
        stats = self._topic_stats(peer, topic)
        if stats.in_mesh:
            stats.mesh_time = now - stats.graft_time
            deficit = self._delivery_deficit(stats, params)
            if deficit > 0:
                stats.mesh_failure_penalty += deficit * deficit
                self._suspect(peer)
        stats.in_mesh = False

    # -- delivery events ------------------------------------------------------------

    def first_message(self, peer: NodeId, topic: str) -> None:
        params = self.params.for_topic(topic)
        stats = self._topic_stats(peer, topic)
        stats.first_message_deliveries = min(
            stats.first_message_deliveries + 1,
            params.first_message_deliveries_cap,
        )
        if stats.in_mesh:
            stats.mesh_message_deliveries = min(
                stats.mesh_message_deliveries + 1,
                params.mesh_message_deliveries_cap,
            )

    def duplicate_message(self, peer: NodeId, topic: str) -> None:
        stats = self._peers.get(peer)
        for tstats in stats.topics if stats is not None else ():
            if tstats.topic == topic:
                break
        else:
            tstats = None
        if tstats is None or not tstats.in_mesh:
            # A duplicate from outside the mesh changes nothing: the
            # counters stay untouched, and lazily creating the topic
            # entry later replays decay over zeros (still zeros). Keep
            # the memo too — the score did not move.
            return
        stats.memo = None
        # The hottest score event (every in-mesh duplicate): for_topic,
        # the same-tick materialize no-op and min() without their frames.
        params = self.params.topic_params.get(
            topic, self.params.default_topic_params
        )
        if tstats.tick != self._tick:
            self._materialize_topic(tstats, params)
        count = tstats.mesh_message_deliveries + 1
        cap = params.mesh_message_deliveries_cap
        tstats.mesh_message_deliveries = count if count <= cap else cap

    def reject_message(self, peer: NodeId, topic: str) -> None:
        stats = self._topic_stats(peer, topic)
        stats.invalid_message_deliveries += 1
        self._suspect(peer)

    def behaviour_penalty(self, peer: NodeId, amount: float = 1.0) -> None:
        stats = self._stats(peer)
        stats.memo = None
        self._materialize_behaviour(stats)
        stats.behaviour_penalty += amount
        self._suspect(peer)

    def set_app_score(self, peer: NodeId, score: float) -> None:
        stats = self._stats(peer)
        stats.memo = None
        stats.app_score = score
        if score < 0:
            self._suspect(peer)

    def set_ip(self, peer: NodeId, ip: str) -> None:
        self._assign_ip(peer, self._stats(peer), ip)

    def _assign_ip(
        self, peer: NodeId, stats: _PeerStats, ip: str
    ) -> None:
        if stats.ip == ip:
            return
        # P6 reads the group size: every member of the group left and
        # of the group joined changes score, this peer's among them.
        peers = self._peers
        if stats.ip is not None:
            # A peer with an IP is always in its group.
            old = self._ip_peers[stats.ip]
            old.discard(peer)
            for member in old:
                peers[member].memo = None
            if not old:
                del self._ip_peers[stats.ip]
        stats.ip = ip
        group = self._ip_peers.setdefault(ip, set())
        group.add(peer)
        for member in group:
            peers[member].memo = None
        if len(group) > self.params.ip_colocation_factor_threshold:
            self._suspect(*group)

    # -- suspects ---------------------------------------------------------------------

    def maybe_negative(self, peer: NodeId) -> bool:
        """Could this peer's score be below zero?

        False is a guarantee (the peer carries no negative component);
        True only means "compute the real score to find out". The set
        self-cleans: :meth:`score` removes a peer once every negative
        component has decayed away.
        """
        return peer in self._suspects

    def suspects(self) -> AbstractSet[NodeId]:
        """The current suspect set (do not mutate)."""
        return self._suspects

    def _suspect(self, *peers: NodeId) -> None:
        if self._suspects is _NO_SUSPECTS:
            self._suspects = set()
        self._suspects.update(peers)

    def _drop_suspect(self, peer: NodeId) -> None:
        suspects = self._suspects
        if peer in suspects:
            suspects.discard(peer)
            if not suspects:
                self._suspects = _NO_SUSPECTS

    # -- scoring -----------------------------------------------------------------------

    def _delivery_deficit(
        self, tstats: _TopicStats, params: TopicScoreParams
    ) -> float:
        if tstats.mesh_time < params.mesh_message_deliveries_activation:
            return 0.0
        # Exact: a float difference is zero only between equal floats.
        deficit = (
            params.mesh_message_deliveries_threshold
            - tstats.mesh_message_deliveries
        )
        return deficit if deficit > 0 else 0.0

    def score(self, peer: NodeId, now: float = 0.0) -> float:
        stats = self._peers.get(peer)
        if stats is None:
            return 0.0
        tick = self._tick
        cached = stats.memo
        if (
            cached is not None
            and (cached[0] == now or not cached[3])
            and (cached[1] == tick or not cached[4])
        ):
            return cached[2]
        topic_params = self.params.topic_params
        default_params = self.params.default_topic_params
        # A term whose counter or weight is zero is skipped: adding
        # +-0.0 leaves every partial sum unchanged (none can be -0.0,
        # each starts at +0.0), so the total is bit-identical.
        total = 0.0
        #: Does any negative-capable component remain live?
        suspect = stats.app_score < 0
        #: Does the score depend on ``now`` (any in-mesh topic)?
        now_dependent = False
        #: Can a decay tick move it (any non-zero decaying counter)?
        decaying = False
        for tstats in stats.topics:
            params = topic_params.get(tstats.topic, default_params)
            if tstats.tick != tick:
                self._materialize_topic(tstats, params)
            topic_score = 0.0
            # P1
            in_mesh = tstats.in_mesh
            if in_mesh:
                now_dependent = True
                tstats.mesh_time = now - tstats.graft_time
            weight = params.time_in_mesh_weight
            if weight and tstats.mesh_time:
                p1 = tstats.mesh_time / params.time_in_mesh_quantum
                cap = params.time_in_mesh_cap
                topic_score += (cap if cap < p1 else p1) * weight
            # P2
            p2 = tstats.first_message_deliveries
            if p2:
                decaying = True
                topic_score += p2 * params.first_message_deliveries_weight
            # P3 (only while in mesh)
            if tstats.mesh_message_deliveries:
                decaying = True
            weight = params.mesh_message_deliveries_weight
            if in_mesh and weight:
                deficit = self._delivery_deficit(tstats, params)
                if deficit:
                    topic_score += deficit * deficit * weight
                if params.strict:
                    suspect = True
            # P3b
            p3b = tstats.mesh_failure_penalty
            if p3b:
                decaying = suspect = True
                topic_score += p3b * params.mesh_failure_penalty_weight
            # P4
            p4 = tstats.invalid_message_deliveries
            if p4:
                decaying = suspect = True
                topic_score += (
                    p4 * p4 * params.invalid_message_deliveries_weight
                )
            if topic_score:
                total += topic_score * params.topic_weight
        # P5
        if stats.app_score:
            total += stats.app_score * self.params.app_specific_weight
        # P6 — IP colocation
        if stats.ip is not None:
            colocated = len(self._ip_peers.get(stats.ip, ()))
            excess = colocated - self.params.ip_colocation_factor_threshold
            if excess > 0:
                total += excess * excess * self.params.ip_colocation_factor_weight
                suspect = True
        # P7
        if stats.behaviour_tick != tick:
            self._materialize_behaviour(stats)
        p7 = stats.behaviour_penalty
        if p7:
            decaying = True
        if p7 > self.params.behaviour_penalty_threshold:
            excess = p7 - self.params.behaviour_penalty_threshold
            total += excess * excess * self.params.behaviour_penalty_weight
        if p7 > 0:
            suspect = True
        if not suspect and peer in self._suspects:
            self._drop_suspect(peer)
        stats.memo = (now, tick, total, now_dependent, decaying)
        return total
