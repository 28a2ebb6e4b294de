"""The GossipSub v1.1 router.

Implements the full message path of the libp2p spec: mesh overlays per
topic with GRAFT/PRUNE maintenance and backoff, fanout for unsubscribed
publishers, lazy gossip (IHAVE/IWANT) over a sliding message cache,
flood-publishing, per-topic validators, duplicate suppression and peer
scoring with gossip/publish/graylist thresholds and opportunistic
grafting.

One router instance is one network node; it talks to neighbours through
:class:`repro.net.network.Network` and drives its heartbeat off the
shared discrete-event simulator.

Heartbeat ownership and cost
----------------------------

The heartbeat owns all periodic state: mesh membership repair, score
decay ticks, fanout expiry, IHAVE emission, the mcache window shift and
backoff expiry. Everything else (mesh joins/leaves, score events) is
edge-triggered by RPC handling.

The heartbeat does O(changed) work: score decay is a global-clock tick
(counters materialise lazily on access), mesh maintenance only visits
topics marked *dirty* by an actual change (a GRAFT/PRUNE, a link-down
notification from the network, a mesh out of its degree bounds, or a
mesh member entering the score tracker's suspect set), backoffs expire
through a heap instead of an unbounded dict, and gossip emission scores
only the non-mesh peers it may gossip to. Every ``full_sweep_interval``
heartbeats a self-healing full pass over all subscribed topics runs,
which is also when opportunistic grafting happens. Outcomes are
bit-identical to a per-heartbeat sweep over every (topic, peer) pair —
this path only skips work it can prove is a no-op (the sweep survives
as a test oracle).
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import (
    Any, Callable, Collection, Dict, FrozenSet, List, Optional, Sequence, Set,
    Tuple,
)

from ..errors import GossipError
from ..net.network import Network, NodeId
from ..sim.metrics import MetricsRegistry
from .mcache import MessageCache, SeenCache
from .params import GossipSubParams
from .rpc import GossipMessage, RpcPacket, compute_message_id
from .score import DEFAULT_SCORE_PARAMS, PeerScoreParams, PeerScoreTracker


class ValidationResult(Enum):
    """Outcome of a topic validator for one message."""

    ACCEPT = "accept"  # deliver + forward
    IGNORE = "ignore"  # drop silently (no score penalty)
    REJECT = "reject"  # drop + P4 penalty for the forwarding peer


#: Validator callback: (topic, payload, previous_hop) -> ValidationResult.
Validator = Callable[[str, Any, NodeId], ValidationResult]

#: Application delivery callback: (topic, payload, msg_id, previous_hop).
DeliveryCallback = Callable[[str, Any, str, NodeId], None]

#: Read-only stand-in for a missing peer set (no throwaway ``set()``).
_NO_PEERS: FrozenSet[NodeId] = frozenset()


class GossipSubRouter:
    """A gossipsub v1.1 node.

    Public state an embedder may read (but should mutate only through
    the subscribe/publish API):

    * ``subscriptions`` — topics this node is subscribed to;
    * ``mesh`` — topic -> full-message mesh members (subset of current
      neighbours; repaired by the heartbeat);
    * ``fanout`` — topic -> publish targets for topics we publish to
      without subscribing; expires ``fanout_ttl`` seconds after the
      last publish;
    * ``topic_peers`` — topic -> peers known (from RPC) to subscribe.
    """

    def __init__(
        self,
        node_id: NodeId,
        network: Network,
        params: Optional[GossipSubParams] = None,
        score_params: Optional[PeerScoreParams] = None,
        metrics: Optional[MetricsRegistry] = None,
        processing_delay: float = 0.0,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.params = params or GossipSubParams()
        #: Simulated seconds of local work (e.g. zkSNARK verification)
        #: applied to each inbound RPC that carries message publications.
        self.processing_delay = processing_delay
        self.metrics = metrics if metrics is not None else network.metrics
        # Pre-bound counter dict: the registry method costs a call frame
        # per bump, and the delivery path bumps several per packet.
        self._counters = self.metrics.counters
        self.scores = PeerScoreTracker(score_params or DEFAULT_SCORE_PARAMS)
        #: Read per inbound packet: the kernel whose clock stamps it.
        self._simulator = network.simulator

        self.subscriptions: Set[str] = set()
        self.mesh: Dict[str, Set[NodeId]] = {}
        self.fanout: Dict[str, Set[NodeId]] = {}
        self._fanout_expiry: Dict[str, float] = {}
        #: topic -> peers we know are subscribed (learned from RPC).
        self.topic_peers: Dict[str, Set[NodeId]] = {}
        #: (peer, topic) -> expiry; a GRAFT before expiry is a protocol
        #: violation (P7). Entries expire lazily through ``_backoff_heap``.
        self._backoff: Dict[Tuple[NodeId, str], float] = {}
        self._backoff_heap: List[Tuple[float, NodeId, str]] = []
        #: Topics whose mesh needs maintenance on the next heartbeat (a
        #: tuple: a few topics at most, and none costs no container).
        self._dirty_topics: Tuple[str, ...] = ()
        self._heartbeat_count = 0

        self.mcache = MessageCache(self.params.mcache_len, self.params.mcache_gossip)
        self.seen = SeenCache(self.params.seen_ttl)
        self.validators: Dict[str, Validator] = {}
        self.delivery_callbacks: List[DeliveryCallback] = []
        self._heartbeat_cancel: Optional[Callable[[], None]] = None

        network.attach(self)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Begin heartbeating; call after the topology is wired."""
        if self._heartbeat_cancel is not None:
            return
        self._heartbeat_cancel = self.network.simulator.schedule_periodic(
            self.params.heartbeat_interval,
            lambda _sim: self.heartbeat(),
            label=f"heartbeat:{self.node_id}",
            jitter=0.1,
            stagger=True,
            rng=self.network.simulator.entity_rng(self.node_id),
            shard=self.node_id,
        )

    def stop(self) -> None:
        if self._heartbeat_cancel is not None:
            self._heartbeat_cancel()
            self._heartbeat_cancel = None

    @property
    def now(self) -> float:
        return self.network.simulator.now

    def peers(self) -> List[NodeId]:
        """Current direct neighbours (sorted)."""
        return self.network.neighbors(self.node_id)

    def on_link_down(self, peer: NodeId) -> None:
        """Network hook: a link of ours disappeared (churn).

        Eviction itself still happens on the next heartbeat — exactly
        when the reference sweep would notice — this only marks the
        affected topics dirty so the batched path looks at them.
        """
        for topic, mesh in self.mesh.items():
            if peer in mesh:
                self._mark_dirty(topic)

    # -- subscriptions ------------------------------------------------------------

    def subscribe(self, topic: str) -> None:
        """Join ``topic``: announce to neighbours and start building a
        mesh (fanout peers for the topic are adopted immediately)."""
        if topic in self.subscriptions:
            return
        self.subscriptions.add(topic)
        self.mesh.setdefault(topic, set())
        self._mark_dirty(topic)
        # Adopt fanout peers if we were publishing to this topic already.
        for peer in sorted(self.fanout.pop(topic, ())):
            self._graft_peer(peer, topic)
        self._fanout_expiry.pop(topic, None)
        self._broadcast_control(RpcPacket(subscribe=[topic]))

    def unsubscribe(self, topic: str) -> None:
        """Leave ``topic``: PRUNE every mesh member (with backoff and
        Peer Exchange) and announce the unsubscription."""
        if topic not in self.subscriptions:
            return
        self.subscriptions.discard(topic)
        for peer in sorted(self.mesh.get(topic, ())):
            self._prune_peer(peer, topic)
        self.mesh.pop(topic, None)
        self._mark_clean(topic)
        self._broadcast_control(RpcPacket(unsubscribe=[topic]))

    def announce_to(self, peer: NodeId) -> None:
        """Tell a (new) neighbour which topics we are subscribed to."""
        if self.subscriptions:
            self._send((peer,), RpcPacket(subscribe=sorted(self.subscriptions)))

    def add_validator(self, topic: str, validator: Validator) -> None:
        """Install the validator consulted for every message on
        ``topic`` (one per topic; later calls replace)."""
        self.validators[topic] = validator

    def on_delivery(self, callback: DeliveryCallback) -> None:
        self.delivery_callbacks.append(callback)

    # -- publishing -------------------------------------------------------------------

    def publish(self, topic: str, payload: Any) -> str:
        """Publish a payload; returns the message ID.

        Targets are the mesh (when subscribed), the fanout (when not),
        or — with ``flood_publish`` — every known topic peer above the
        publish threshold.
        """
        msg_id = compute_message_id(topic, payload)
        message = GossipMessage(msg_id=msg_id, topic=topic, payload=payload)
        self.seen.witness(msg_id, self.now)
        self.mcache.put(message)
        self._counters["gossipsub.published"] += 1

        targets: Collection[NodeId]
        if self.params.flood_publish:
            threshold = self.scores.params.publish_threshold
            targets = [
                peer
                for peer in self.topic_peers.get(topic, _NO_PEERS)
                if self.scores.score(peer, self.now) >= threshold
            ]
        elif topic in self.subscriptions:
            targets = self.mesh.get(topic, _NO_PEERS)
        else:
            targets = self._fanout_targets(topic)
        # Sorted: set order leaks the interpreter's hash seed into the
        # send sequence (and so into delivery order network-wide).
        self._send(sorted(targets), RpcPacket(publish=[message]))
        # A publisher counts as having delivered its own message.
        self._deliver_locally(message, from_peer=self.node_id)
        return msg_id

    def _fanout_targets(self, topic: str) -> Set[NodeId]:
        """Fanout peers for an unsubscribed topic, building the set on
        first use; every publish pushes the expiry ``fanout_ttl`` out,
        so a steady publisher reuses one fanout set indefinitely."""
        peers = self.fanout.get(topic)
        if not peers:
            candidates = self._gossip_eligible_peers(topic)
            peers = set(candidates[: self.params.d])
            self.fanout[topic] = peers
        self._fanout_expiry[topic] = self.now + self.params.fanout_ttl
        return peers

    # -- packet handling -----------------------------------------------------------------

    def deliver(self, from_peer: NodeId, packet: Any, held: bool = False) -> None:
        """Network entry point (NetworkNode protocol): one RPC from
        direct neighbour ``from_peer``. An RPC carrying publications is
        first held for ``processing_delay`` simulated seconds (``held``
        marks its re-entry)."""
        if not isinstance(packet, RpcPacket):
            raise GossipError(f"unexpected packet type {type(packet).__name__}")
        if self.processing_delay > 0 and packet.publish and not held:
            self.network.simulator.schedule(
                self.processing_delay,
                lambda _sim: self.deliver(from_peer, packet, True),
                label=f"validate:{self.node_id}",
                shard=self.node_id,
            )
            return
        scores = self.scores
        counters = self._counters
        now = self._simulator.now
        if from_peer not in scores._peers:
            scores.add_peer(from_peer)
        # Graylisting compares against a negative threshold, and a
        # non-suspect provably scores >= 0 — only suspects need the
        # real score computed on this per-RPC path.
        if from_peer in scores._suspects and (
            scores.score(from_peer, now) < scores.params.graylist_threshold
        ):
            counters["gossipsub.graylisted_rpc"] += 1
            return
        # A publish-only RPC (every forward) skips the control walks in
        # two truth tests.
        if packet.subscribe or packet.unsubscribe:
            for topic in packet.subscribe:
                self.topic_peers.setdefault(topic, set()).add(from_peer)
            for topic in packet.unsubscribe:
                peers = self.topic_peers.get(topic)
                if peers is not None:
                    peers.discard(from_peer)
                mesh = self.mesh.get(topic)
                if mesh is not None and from_peer in mesh:
                    mesh.discard(from_peer)
                    self._mark_dirty(topic)
        # Three of four deliveries are duplicates: they end here, on
        # the seen-cache probe, without another router frame.
        for message in packet.publish:
            counters["gossipsub.received"] += 1
            if self.seen.witness(message.msg_id, now):
                scores.duplicate_message(from_peer, message.topic)
                counters["gossipsub.duplicates"] += 1
            else:
                self._handle_first(message, from_peer)
        if packet.ihave or packet.iwant or packet.graft or packet.prune:
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

    def _handle_first(self, message: GossipMessage, from_peer: NodeId) -> None:
        """A message this node had not seen: validate, deliver, forward."""
        topic = message.topic
        counters = self._counters
        validator = self.validators.get(topic)
        result = (
            ValidationResult.ACCEPT
            if validator is None
            else validator(topic, message.payload, from_peer)
        )
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
        self._forward(message, from_peer)

    def _deliver_locally(self, message: GossipMessage, from_peer: NodeId) -> None:
        if message.topic not in self.subscriptions:
            return
        self._counters["gossipsub.delivered"] += 1
        for callback in self.delivery_callbacks:
            callback(message.topic, message.payload, message.msg_id, from_peer)

    def _forward(self, message: GossipMessage, from_peer: NodeId) -> None:
        """Relay a first delivery to the topic's mesh, less the peer it
        came from: one packet, one fan-out, counted once. Sorted so the
        forward order never depends on the set hash order."""
        mesh = self.mesh.get(message.topic)
        if not mesh:
            return
        targets = sorted(mesh)
        if from_peer in mesh:
            targets.remove(from_peer)
        if not targets:
            return
        packet = RpcPacket(publish=[message])
        # ``_send`` inline: this is the one fan-out per first delivery.
        # Every target counts, before the network can refuse one.
        counters = self._counters
        counters["gossipsub.rpc_sent"] += len(targets)
        counters["gossipsub.bytes_sent"] += len(targets) * packet.size_bytes
        self.network.send(self.node_id, targets, packet)

    def _handle_ihave(
        self, ihave: Dict[str, List[str]], from_peer: NodeId
    ) -> None:
        # Ignore gossip from peers scored below the gossip threshold
        # (negative, so non-suspects pass without a score computation).
        if self.scores.maybe_negative(from_peer) and (
            self.scores.score(from_peer, self.now)
            < self.scores.params.gossip_threshold
        ):
            return
        # An insertion-ordered set, cut at the cap as it fills.
        wanted: Dict[str, None] = {}
        cap = self.params.max_iwant_per_heartbeat
        for topic, ids in ihave.items():
            if topic in self.subscriptions:
                for msg_id in ids:
                    if len(wanted) >= cap:
                        break
                    if msg_id not in wanted and msg_id not in self.seen:
                        wanted[msg_id] = None
        if wanted:
            self._send((from_peer,), RpcPacket(iwant=list(wanted)))

    def _handle_iwant(self, iwant: List[str], from_peer: NodeId) -> None:
        found = [
            message
            for msg_id in iwant
            if (message := self.mcache.get(msg_id)) is not None
        ]
        if found:
            self._send((from_peer,), RpcPacket(publish=found))

    def _handle_graft(self, topic: str, from_peer: NodeId) -> None:
        if topic not in self.subscriptions:
            pass
        elif self._in_backoff(from_peer, topic):
            # GRAFTing while backoffed is a protocol violation (P7).
            self.scores.behaviour_penalty(from_peer)
        elif self.scores.score(from_peer, self.now) >= 0:
            self.mesh.setdefault(topic, set()).add(from_peer)
            self._mark_dirty(topic)
            self.scores.graft(from_peer, topic, self.now)
            self.topic_peers.setdefault(topic, set()).add(from_peer)
            return
        # Refused: answer with a PRUNE.
        self._send(
            (from_peer,), RpcPacket(prune=[(topic, self.params.prune_backoff)])
        )

    def _handle_prune(
        self,
        topic: str,
        from_peer: NodeId,
        backoff: float,
        px: Optional[List[NodeId]] = None,
    ) -> None:
        mesh = self.mesh.get(topic)
        if mesh is not None and from_peer in mesh:
            mesh.discard(from_peer)
            self._mark_dirty(topic)
        self.scores.prune(from_peer, topic, self.now)
        self._set_backoff(
            from_peer, topic, max(backoff, self.params.prune_backoff)
        )
        # Peer Exchange: accept suggestions only from well-scored peers
        # (a graylist-adjacent peer could otherwise steer our mesh).
        if px and (
            self.scores.score(from_peer, self.now)
            >= self.scores.params.accept_px_threshold
        ):
            self._connect_px(topic, px)

    def _connect_px(self, topic: str, suggestions: List[NodeId]) -> None:
        """Dial PX-suggested peers and exchange subscriptions."""
        for peer in suggestions[: self.params.px_peers]:
            if peer == self.node_id or peer not in self.network:
                continue
            if not self.network.are_connected(self.node_id, peer):
                self.network.connect(self.node_id, peer)
                self._counters["gossipsub.px_dials"] += 1
            self.topic_peers.setdefault(topic, set()).add(peer)
            self.announce_to(peer)

    # -- mesh maintenance -----------------------------------------------------------------

    def _mark_dirty(self, topic: str) -> None:
        if topic not in self._dirty_topics:
            self._dirty_topics += (topic,)

    def _mark_clean(self, topic: str) -> None:
        dirty = self._dirty_topics
        if topic in dirty:
            i = dirty.index(topic)
            self._dirty_topics = dirty[:i] + dirty[i + 1 :]

    def _in_backoff(self, peer: NodeId, topic: str) -> bool:
        return self._backoff.get((peer, topic), 0.0) > self.now

    def _set_backoff(self, peer: NodeId, topic: str, duration: float) -> None:
        expiry = self.now + duration
        self._backoff[(peer, topic)] = expiry
        heapq.heappush(self._backoff_heap, (expiry, peer, topic))

    def _expire_backoffs(self) -> None:
        """Drop expired backoff entries (amortised via the heap).

        Purely memory management: :meth:`_in_backoff` compares
        timestamps, so whether an expired entry is still stored never
        changes behaviour — without this the dict grows with every
        PRUNE ever received.
        """
        heap = self._backoff_heap
        while heap and heap[0][0] <= self.now:
            expiry, peer, topic = heapq.heappop(heap)
            # Only delete if this heap entry is the live one (the
            # backoff may have been extended by a later PRUNE).
            if self._backoff.get((peer, topic)) == expiry:
                del self._backoff[(peer, topic)]

    def _graft_peer(self, peer: NodeId, topic: str) -> None:
        self.mesh.setdefault(topic, set()).add(peer)
        self._mark_dirty(topic)
        self.scores.graft(peer, topic, self.now)
        self._send((peer,), RpcPacket(graft=[topic]))

    def _prune_peer(self, peer: NodeId, topic: str) -> None:
        mesh = self.mesh.get(topic)
        if mesh is not None and peer in mesh:
            mesh.discard(peer)
            self._mark_dirty(topic)
        self.scores.prune(peer, topic, self.now)
        self._set_backoff(peer, topic, self.params.prune_backoff)
        # Offer Peer Exchange: well-scored alternatives from our mesh,
        # so the pruned peer can heal its degree elsewhere.
        suggestions = [
            p
            for p in sorted(self.mesh.get(topic, ()))
            if p != peer
            and (
                not self.scores.maybe_negative(p)
                or self.scores.score(p, self.now) >= 0
            )
        ][: self.params.px_peers]
        packet = RpcPacket(prune=[(topic, self.params.prune_backoff)])
        if suggestions:
            packet.px = {topic: suggestions}
        self._send((peer,), packet)

    def _gossip_eligible_peers(
        self, topic: str, exclude: Collection[NodeId] = ()
    ) -> List[NodeId]:
        """Known topic peers that are direct neighbours, not in
        ``exclude`` and at or above the gossip threshold, best score
        first."""
        neighbors = self.network.neighbor_set(self.node_id)
        score = self.scores.score
        now = self._simulator.now
        threshold = self.scores.params.gossip_threshold
        # Sorted base order: score ties must break on the peer id, not
        # on the hash-seed-dependent set order (the stable sort below
        # preserves the input order within equal scores). Dropping
        # ``exclude`` first ranks only what the caller keeps, in the
        # same order: a stable sort of a subset is that subset of the
        # stable sort.
        ranks: Dict[NodeId, float] = {}
        for peer in sorted(self.topic_peers.get(topic, ())):
            if peer in neighbors and peer not in exclude:
                value = score(peer, now)
                if value >= threshold:
                    ranks[peer] = value
        candidates = list(ranks)
        if len(candidates) > 1:
            candidates.sort(key=ranks.__getitem__, reverse=True)
        return candidates

    def heartbeat(self) -> None:
        """Periodic maintenance: mesh balancing, gossip, cache shift.

        Every ``full_sweep_interval``-th heartbeat (including the very
        first) is a *sweep* heartbeat: all subscribed topics are
        maintained and opportunistic grafting runs. In between, only
        topics that need it are maintained, in sorted topic order, so
        the RNG stream — and therefore every downstream outcome — is
        that of maintaining every topic every time.
        """
        self.scores.decay()
        sweep_interval = max(1, self.params.full_sweep_interval)
        sweep = self._heartbeat_count % sweep_interval == 0
        self._heartbeat_count += 1
        if sweep:
            topics = sorted(self.subscriptions)
        else:
            topics = self._topics_needing_maintenance()
        for topic in topics:
            self._maintain_topic(topic)
        if sweep:
            for topic in sorted(self.subscriptions):
                self._opportunistic_graft(topic, self.mesh.get(topic, _NO_PEERS))
        self._expire_fanout()
        self._emit_gossip()
        self.mcache.shift()
        self._expire_backoffs()

    def _topics_needing_maintenance(self) -> List[str]:
        """Subscribed topics a non-sweep heartbeat must visit: explicitly
        dirtied ones, plus any whose mesh intersects the score tracker's
        suspect set (a member *might* have gone negative without
        touching this topic's mesh)."""
        suspects = self.scores.suspects()
        needy = set()
        for topic in self.subscriptions:
            if topic in self._dirty_topics:
                needy.add(topic)
            elif suspects:
                mesh = self.mesh.get(topic)
                if mesh and not suspects.isdisjoint(mesh):
                    needy.add(topic)
        return sorted(needy)

    def _maintain_topic(self, topic: str) -> None:
        """One topic's mesh repair."""
        rng = self.network.simulator.entity_rng(self.node_id)
        mesh = self.mesh.get(topic)
        if mesh is None:
            mesh = self.mesh[topic] = set()
        self._mark_clean(topic)
        neighbors = self.network.neighbor_set(self.node_id)
        # Evict mesh members whose connection is gone (churn); they
        # re-enter through GRAFT after the backoff, and meanwhile
        # the IHAVE/IWANT gossip path covers them. (All mesh scans are
        # sorted: iteration order must not leak the hash seed into the
        # prune/send sequence.)
        for peer in [p for p in sorted(mesh) if p not in neighbors]:
            mesh.discard(peer)
            self.scores.prune(peer, topic, self.now)
            self._set_backoff(peer, topic, self.params.prune_backoff)
        # Drop negatively scored mesh members outright, pre-filtered
        # through the suspect set — a non-suspect provably scores >= 0,
        # so skipping its score() changes nothing.
        negative = [
            p
            for p in sorted(mesh)
            if self.scores.maybe_negative(p)
            and self.scores.score(p, self.now) < 0
        ]
        for peer in negative:
            self._prune_peer(peer, topic)
        if len(mesh) < self.params.d_lo:
            candidates = [
                peer
                for peer in self._gossip_eligible_peers(topic, mesh)
                if not self._in_backoff(peer, topic)
                and (
                    not self.scores.maybe_negative(peer)
                    or self.scores.score(peer, self.now) >= 0
                )
            ]
            rng.shuffle(candidates)
            for peer in candidates[: self.params.d - len(mesh)]:
                self._graft_peer(peer, topic)
        elif len(mesh) > self.params.d_hi:
            # Keep the best d_score peers, prune random others to d.
            # Ties rank by peer id so the cut never depends on the
            # hash-seed set order.
            ranked = sorted(
                mesh,
                key=lambda p: (-self.scores.score(p, self.now), p),
            )
            keep = set(ranked[: self.params.d_score])
            removable = [p for p in ranked[self.params.d_score :]]
            rng.shuffle(removable)
            while len(keep) < self.params.d and removable:
                keep.add(removable.pop())
            for peer in sorted(mesh - keep):
                self._prune_peer(peer, topic)
        # A mesh still out of bounds (no eligible candidates yet) must
        # be revisited next heartbeat, exactly like the reference sweep
        # would.
        if not self.params.d_lo <= len(mesh) <= self.params.d_hi:
            self._mark_dirty(topic)

    def _opportunistic_graft(self, topic: str, mesh: Set[NodeId]) -> None:
        """Graft above-median candidates when the mesh's median score
        sags below ``opportunistic_graft_threshold`` (runs on sweep
        heartbeats only; consumes no RNG)."""
        if not mesh:
            return
        scores = sorted(self.scores.score(p, self.now) for p in mesh)
        median = scores[len(scores) // 2]
        if median >= self.scores.params.opportunistic_graft_threshold:
            return
        candidates = [
            peer
            for peer in self._gossip_eligible_peers(topic, mesh)
            if not self._in_backoff(peer, topic)
            and self.scores.score(peer, self.now) > median
        ]
        for peer in candidates[: self.params.opportunistic_graft_peers]:
            self._graft_peer(peer, topic)

    def _expire_fanout(self) -> None:
        for topic in [
            t for t, expiry in self._fanout_expiry.items() if expiry <= self.now
        ]:
            self.fanout.pop(topic, None)
            self._fanout_expiry.pop(topic, None)

    def _emit_gossip(self) -> None:
        """Advertise recent message IDs (IHAVE) to ``d_lazy`` non-mesh
        peers per topic with gossip-window traffic: one packet per
        topic, counted once per fan-out like ``_forward``."""
        rng = self.network.simulator.entity_rng(self.node_id)
        counters = self._counters
        for topic in sorted(set(self.subscriptions) | set(self.fanout)):
            msg_ids = self.mcache.gossip_ids(topic)
            if not msg_ids:
                continue
            candidates = self._gossip_eligible_peers(
                topic, self.mesh.get(topic, ())
            )
            rng.shuffle(candidates)
            targets = candidates[: self.params.d_lazy]
            if not targets:
                continue
            # ``_send`` inline, as in ``_forward``.
            packet = RpcPacket(ihave={topic: msg_ids})
            counters["gossipsub.rpc_sent"] += len(targets)
            counters["gossipsub.bytes_sent"] += len(targets) * packet.size_bytes
            self.network.send(self.node_id, targets, packet)

    # -- transport ------------------------------------------------------------------------

    def _send(self, peers: Sequence[NodeId], packet: RpcPacket) -> None:
        """Send ``packet`` (never empty) to ``peers`` as one fan-out;
        every target counts, before the network can refuse one."""
        if not peers:
            return
        counters = self._counters
        counters["gossipsub.rpc_sent"] += len(peers)
        counters["gossipsub.bytes_sent"] += len(peers) * packet.size_bytes
        self.network.send(self.node_id, peers, packet)

    def _broadcast_control(self, packet: RpcPacket) -> None:
        self._send(self.peers(), packet)
