"""Execute a :class:`ScenarioSpec` end-to-end.

The runner assembles the full stack — discrete-event simulator, latency
network, GossipSub overlay, Waku-Relay nodes, RLN membership contract
and slashing — through :class:`~repro.core.protocol.WakuRlnRelayNetwork`,
drives the spec's traffic/adversary/churn processes on the simulated
clock, and condenses everything into one
:class:`~repro.scenarios.result.ScenarioResult`.

Adversaries run inside an
:class:`~repro.adversaries.engine.AdversaryEngine`: slashing settles through the membership contract *during* the run, and
the engine's per-epoch economics samples surface as the result's
``series`` (the cost-of-attack curve).

Construction is split in three so parallel workers can *build per
worker* instead of forking a fully built stack:

* ``__init__`` computes pure, picklable scenario state (roster ids,
  topic maps, counters) and — in serial or single-worker parallel mode
  — immediately materializes the network.
* :meth:`_materialize` builds the network for one ownership set: the
  full deployment (``owned=None``), a worker's shard group, or the
  coordinator's empty set (all ghosts, chain replica only).
* :meth:`_prepare` arms every scheduled process (registration,
  watchtowers, traffic, adversaries, churn, faults) and flips the
  chain into replica mode. In parallel mode every decision that spans
  workers — publisher choice, churn victims, dial lists, delegator
  sets — draws from dedicated named entity streams, so each worker
  derives the identical plan without coordination.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from bisect import insort
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from ..constants import SPAM_MARKER
from ..core.peer import WakuRlnRelayPeer
from ..core.protocol import WakuRlnRelayNetwork
from ..errors import RateLimitError, RegistrationError
from ..sim.simulator import Simulator, quiescent_gc
from ..waku.message import DEFAULT_PUBSUB_TOPIC, WakuMessage
from .result import ScenarioResult
from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversaries.engine import AdversaryEngine
    from ..watchtower.service import WatchtowerService

#: Honest payload marker; spam carries the agents'
#: :data:`~repro.constants.SPAM_MARKER` (one shared constant, so the
#: delivery classifier cannot drift from the emitters).
HONEST_MARKER = b"MSG|"

#: Cap on retained adversary-economics series samples under
#: ``spec.streaming_metrics`` (deterministic stride-doubling
#: decimation).
SERIES_MAX_POINTS = 256

#: The reference flooder ``compare_baseline`` runs when the spec has no
#: adversaries: this burst per epoch, for this many epochs.
BASELINE_BURST = 5
BASELINE_EPOCHS = 3

#: Metrics counters copied verbatim into ``ScenarioResult.counters``.
_COUNTER_PREFIXES = ("validator.", "rln.")
_COUNTER_NAMES = (
    "gossipsub.published",
    "gossipsub.delivered",
    "gossipsub.rejected",
    "gossipsub.ignored",
    "gossipsub.duplicates",
)


class ChurnPlan:
    """Every churn decision of a parallel run, fixed before it starts.

    Serial churn decides as it goes: each leave draws its victim from
    the shared stream against the *live* peer list. Under window
    isolation that list is partition-dependent state, so parallel runs
    precompute the whole schedule from one dedicated entity stream
    (``entity_rng("churn")``) over the roster — every worker derives
    the identical plan, arms only the events whose subject it owns,
    and declares the rest as ghosts.
    """

    __slots__ = ("joins", "leaves", "leave_time_of")

    def __init__(self) -> None:
        #: ``(time, k, joiner_id, neighbors, topic_names)``.
        self.joins: List[Tuple[float, int, str, List[str], Tuple[str, ...]]] = []
        #: ``(time, j, victim_id)`` — successful leaves only.
        self.leaves: List[Tuple[float, int, str]] = []
        #: victim id -> leave time (watchtower dial filtering).
        self.leave_time_of: Dict[str, float] = {}


class ExpectedTracker:
    """Plan-derived live honest-subscriber counts per topic.

    Serial runs maintain ``_honest_subscribers`` by mutating it inside
    join/leave handlers — partition-dependent state under isolation (a
    worker only executes its own churn events). The tracker rebuilds
    the same time series from the churn plan: a sorted per-topic delta
    list applied up to the querying event's timestamp. Same-time ties
    are safe because churn origins (``churn-join:k``/``churn-leave:j``)
    sort before publisher origins (``peer-N``) in the kernel's
    ``(time, origin, seq)`` order, matching the ``<=`` cut here.
    """

    def __init__(self, base: Dict[str, int]) -> None:
        self._value = dict(base)
        self._deltas: Dict[str, List[Tuple[float, int]]] = {}
        self._cursor: Dict[str, int] = {}

    def add(self, topic: str, time: float, delta: int) -> None:
        insort(self._deltas.setdefault(topic, []), (time, delta))
        self._cursor.setdefault(topic, 0)

    def value(self, topic: str, now: float) -> int:
        deltas = self._deltas.get(topic)
        if not deltas:
            return self._value.get(topic, 0)
        cursor = self._cursor[topic]
        value = self._value[topic]
        while cursor < len(deltas) and deltas[cursor][0] <= now:
            value += deltas[cursor][1]
            cursor += 1
        self._cursor[topic] = cursor
        self._value[topic] = value
        return value


class _Recorder:
    """Counts the honest and spam payloads one peer's application
    receives (a slotted object: a fifth of a closure and its cells)."""

    __slots__ = ("runner", "node_id", "counts")

    def __init__(self, runner: "ScenarioRunner", node_id: str) -> None:
        self.runner, self.node_id = runner, node_id
        self.counts = runner._received.setdefault(node_id, [0, 0])

    def __call__(self, topic: str, payload: bytes, _msg_id: str) -> None:
        if payload.startswith(SPAM_MARKER):
            kind = 1
        elif payload.startswith(HONEST_MARKER):
            kind = 0
        else:
            return
        self.counts[kind] += 1
        if self.node_id not in self.runner._adversary_ids:
            by_topic = self.runner._topic_counts.get(topic)
            if by_topic is not None:
                by_topic[kind] += 1


class ScenarioRunner:
    """One scenario execution; create fresh per run."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self._pins: Optional[Dict[str, int]] = (
            self.shard_pins(spec) if spec.parallel_workers else None
        )
        #: Effective worker count (0 = serial mode).
        self.workers = (
            min(spec.parallel_workers, spec.shards)
            if spec.parallel_workers
            else 0
        )
        roster = [f"peer-{i}" for i in range(spec.peers)]
        #: Barrier-fed cumulative spam-delivery count (parallel mode):
        #: the engine's probe reads this instead of the live recorder
        #: sum, so adaptive adversaries see the same value at the same
        #: tick on every shard/worker cell.
        self._spam_feed = 0
        #: Forked-mode overrides, merged in from the worker bundles
        #: (None = read the live objects, i.e. serial / in-process).
        self._wt_override: Optional[tuple] = None
        self._peers_final_override: Optional[int] = None
        self._peer_slashes_override: Optional[int] = None
        self._memo_override: Optional[Tuple[int, int]] = None
        self._subtree_override: Optional[int] = None
        self._nullifier_override: Optional[Tuple[int, int]] = None
        #: node_id -> [honest deliveries, spam deliveries]
        self._received: Dict[str, List[int]] = {}
        #: Every adversary — legacy burst spammers and engine agents —
        #: occupies the tail of the initial peer list.
        total_adversaries = spec.adversaries.total_count
        self._adversary_ids: Set[str] = (
            set(roster[len(roster) - total_adversaries :])
            if total_adversaries
            else set()
        )
        self._publisher_ids: Set[str] = set()
        self._honest_published = 0
        #: Sum over published messages of honest peers alive at publish
        #: time — the delivery-rate denominator. Under churn the rate
        #: can slightly exceed 1: late joiners may still pick up older
        #: messages through IHAVE/IWANT gossip.
        self._expected_deliveries = 0
        self._joined = 0
        self._left = 0
        #: topic -> ids of peers subscribed (the primary holds everyone).
        self._topic_subscribers: Dict[str, Set[str]] = {
            DEFAULT_PUBSUB_TOPIC: set(roster)
        }
        #: topic -> live honest subscriber count (the per-publish
        #: delivery-expectation denominator, maintained incrementally
        #: so a publish costs O(1), not O(peers)). Parallel runs with
        #: churn use the plan-derived tracker instead — live mutation
        #: is partition-dependent.
        self._honest_subscribers: Dict[str, int] = {
            DEFAULT_PUBSUB_TOPIC: spec.peers - len(self._adversary_ids)
        }
        self._open_topics: Set[str] = {
            t.name for t in spec.topics if not t.rln_protected
        }
        #: Per-topic aggregates over honest receivers / publishers.
        self._topic_counts: Dict[str, List[int]] = {
            name: [0, 0] for name in spec.topic_names
        }
        self._topic_published: Dict[str, int] = {
            name: 0 for name in spec.topic_names
        }
        self._topic_expected: Dict[str, int] = {
            name: 0 for name in spec.topic_names
        }
        for topic in spec.topics:
            self._topic_subscribers[topic.name] = set()
            self._honest_subscribers[topic.name] = 0
        #: Delegated enforcement (populated by :meth:`_build_watchtowers`).
        self._watchtowers: List[WatchtowerService] = []
        self._watchtower_dir: Optional[str] = None
        #: Offender pks any validator in the network detected
        #: (double-signal evidence), slashed on-chain or not.
        self._detected_pks: Set[int] = set()
        #: Parallel churn machinery (None until :meth:`_prepare`).
        self._churn_plan: Optional[ChurnPlan] = None
        self._expected: Optional[ExpectedTracker] = None
        #: joiner id -> planned extra-topic names (parallel ``_on_join``
        #: applies these instead of drawing coins).
        self._join_topics: Dict[str, Tuple[str, ...]] = {}
        self.net: Optional[WakuRlnRelayNetwork] = None
        if self.workers <= 1:
            # Serial and single-worker parallel build here; forked
            # parallel defers — each worker (and the coordinator)
            # materializes its own ownership slice after the fork.
            self._materialize(None)

    @staticmethod
    def shard_pins(spec: ScenarioSpec) -> Dict[str, int]:
        """Entities a parallel run pins to shard 0.

        Globals that execute as shard-0 events (the adversary engine,
        watchtower delegation) mutate their subjects directly, so those
        subjects must be co-resident with shard 0: the adversary tail
        and the watchtower services."""
        tail = spec.adversaries.total_count
        pins = {
            f"peer-{index}": 0
            for index in range(spec.peers - tail, spec.peers)
        }
        if spec.watchtowers is not None:
            for service_id in spec.watchtowers.service_ids():
                pins[service_id] = 0
        return pins

    # -- construction -----------------------------------------------------------

    def _materialize(self, owned: Optional[FrozenSet[int]]) -> None:
        """Build the network for one ownership set and wire topics.

        ``owned=None`` builds everything (serial / in-process
        parallel); a frozenset narrows construction to those shards
        before any entity exists (build-per-worker), including the
        coordinator's empty set.
        """
        spec = self.spec
        # Building thousands of peers allocates millions of long-lived
        # objects; keep the collector from rescanning the growing graph.
        with quiescent_gc():
            self.net = WakuRlnRelayNetwork(
                peer_count=spec.peers,
                config=spec.build_config(),
                seed=spec.seed,
                degree=spec.degree,
                block_interval=spec.block_interval,
                shards=spec.shards,
                parallel=bool(spec.parallel_workers),
                shard_pins=self._pins,
                pre_registered=spec.pre_registered,
                owned_shards=owned,
            )
        if spec.parallel_workers:
            self._wire_roster_parallel()
        else:
            for peer in self.net.peers:
                self._wire_topics(peer, self.net.simulator.rng)
                self._attach_recorder(peer)
                if spec.watchtowers is not None:
                    peer.on_evidence(self._note_evidence)
        self.net.on_peer_added(self._on_join)

    # -- wiring ----------------------------------------------------------------

    def _wire_topics(self, peer: WakuRlnRelayPeer, rng) -> None:
        """Subscribe ``peer`` to the spec's extra topics
        (seed-deterministic per-topic coin flips). Serial path only —
        the shared-stream draws are the historical sequence, bit for
        bit."""
        for topic in self.spec.topics:
            if topic.subscribe_fraction <= 0:
                continue
            if (
                topic.subscribe_fraction < 1.0
                and rng.random() >= topic.subscribe_fraction
            ):
                continue
            if topic.rln_protected:
                peer.join_rln_topic(topic.name)
            else:
                peer.join_open_topic(topic.name)
            self._topic_subscribers[topic.name].add(peer.node_id)
            if peer.node_id not in self._adversary_ids:
                self._honest_subscribers[topic.name] += 1

    def _wire_roster_parallel(self) -> None:
        """Roster-wide topic wiring from per-entity streams.

        Every worker flips the identical coins for the *whole* roster
        (subscription maps are global facts the publish path reads),
        then joins/instruments only the peers it materialized. Coins
        come from a dedicated ``topic:{node_id}`` stream — drawing
        from the peer's main entity stream would interleave with its
        keypair and start-jitter draws."""
        spec = self.spec
        net = self.net
        sim = net.simulator
        for node_id in net.roster:
            chosen = []
            coins = None
            for topic in spec.topics:
                fraction = topic.subscribe_fraction
                if fraction <= 0:
                    continue
                if fraction < 1.0:
                    if coins is None:
                        # Ephemeral: one coin stream per roster entry
                        # on every worker — caching them would cost
                        # O(all peers) RSS per worker.
                        coins = sim.ephemeral_rng(f"topic:{node_id}")
                    if coins.random() >= fraction:
                        continue
                chosen.append(topic)
            for topic in chosen:
                self._topic_subscribers[topic.name].add(node_id)
                if node_id not in self._adversary_ids:
                    self._honest_subscribers[topic.name] += 1
            peer = net.peer_named(node_id)
            if peer is not None:
                with sim.build_context(node_id):
                    for topic in chosen:
                        if topic.rln_protected:
                            peer.join_rln_topic(topic.name)
                        else:
                            peer.join_open_topic(topic.name)
                self._attach_recorder(peer)
                if spec.watchtowers is not None:
                    peer.on_evidence(self._note_evidence)

    def _on_join(self, peer: WakuRlnRelayPeer) -> None:
        """Churn joiner: same topic wiring + recorders as the initial
        population (joiners are always honest — adversaries come from
        the initial peer list's tail). Parallel joiners apply their
        *planned* topic set — the coins were already flipped inside
        the churn plan, identically on every worker."""
        self._topic_subscribers[DEFAULT_PUBSUB_TOPIC].add(peer.node_id)
        if self.spec.parallel_workers:
            for name in self._join_topics.get(peer.node_id, ()):
                if name in self._open_topics:
                    peer.join_open_topic(name)
                else:
                    peer.join_rln_topic(name)
                self._topic_subscribers[name].add(peer.node_id)
        else:
            self._honest_subscribers[DEFAULT_PUBSUB_TOPIC] += 1
            self._wire_topics(peer, self.net.simulator.rng)
        self._attach_recorder(peer)
        if self.spec.watchtowers is not None:
            peer.on_evidence(self._note_evidence)

    def _note_evidence(self, evidence) -> None:
        """Any validator in the network detected a double-signal; the
        offender pk feeds the ``missed_slashes`` accounting."""
        self._detected_pks.add(int(evidence.commitment.element))

    def _attach_recorder(self, peer: WakuRlnRelayPeer) -> None:
        peer.on_topic_payload(_Recorder(self, peer.node_id))

    def _honest_peers(self) -> List[WakuRlnRelayPeer]:
        return [
            p for p in self.net.peers if p.node_id not in self._adversary_ids
        ]

    def _spam_delivered_total(self) -> int:
        """Cumulative spam deliveries to honest peers (engine probe)."""
        return sum(
            counts[1]
            for nid, counts in self._received.items()
            if nid not in self._adversary_ids
        )

    # -- processes ---------------------------------------------------------------

    def _publish_topics_for(self, peer: WakuRlnRelayPeer):
        """(topics, weights) this publisher multiplexes over: the
        primary (weight 1.0) plus every extra topic it subscribes to."""
        topics = [DEFAULT_PUBSUB_TOPIC]
        weights = [1.0]
        for topic in self.spec.topics:
            if (
                topic.traffic_weight > 0
                and peer.node_id in self._topic_subscribers[topic.name]
            ):
                topics.append(topic.name)
                weights.append(topic.traffic_weight)
        return topics, weights

    def _count_expected(self, topic: str) -> int:
        """Honest peers currently alive and subscribed to ``topic`` —
        one published message's delivery potential. O(1) amortized:
        serial maintains the count through wiring and churn handlers;
        parallel-with-churn replays the plan's delta schedule."""
        if self._expected is not None:
            return self._expected.value(topic, self.net.simulator.now)
        return self._honest_subscribers[topic]

    def _schedule_traffic(self) -> None:
        traffic = self.spec.traffic
        if traffic.messages_per_epoch <= 0 or traffic.active_fraction <= 0:
            return
        epoch_length = self.net.config.epoch_length
        interval = epoch_length / traffic.messages_per_epoch
        if self.spec.parallel_workers:
            # Publisher choice and start offsets from dedicated
            # streams: every worker computes the same publisher set
            # (the churn plan needs it) but only schedules — and only
            # draws offsets for — the publishers it owns, from private
            # per-publisher streams so skipping ghosts shifts nothing.
            sim = self.net.simulator
            honest_ids = [
                nid
                for nid in self.net.roster
                if nid not in self._adversary_ids
            ]
            count = max(
                1, round(len(honest_ids) * traffic.active_fraction)
            )
            chosen = sim.entity_rng("traffic").sample(
                honest_ids, min(count, len(honest_ids))
            )
            self._publisher_ids = set(chosen)
            for node_id in chosen:
                peer = self.net.peer_named(node_id)
                if peer is None:
                    continue
                offset = sim.entity_rng(f"traffic:{node_id}").uniform(
                    0, interval
                )
                with sim.build_context(node_id):
                    self._arm_publisher(
                        peer, traffic.start + offset, interval
                    )
            return
        honest = self._honest_peers()
        count = max(1, round(len(honest) * traffic.active_fraction))
        rng = self.net.simulator.rng
        publishers = rng.sample(honest, min(count, len(honest)))
        self._publisher_ids = {p.node_id for p in publishers}
        for peer in publishers:
            self._arm_publisher(
                peer, traffic.start + rng.uniform(0, interval), interval
            )

    def _arm_publisher(
        self, peer: WakuRlnRelayPeer, start: float, interval: float
    ) -> None:
        filler = b"x" * max(0, self.spec.traffic.payload_bytes - 24)
        sequence = [0]

        def publish(_sim: Simulator, target=peer, seq=sequence) -> None:
            topics, weights = self._publish_topics_for(target)
            if len(topics) == 1:
                topic = topics[0]
            else:
                # The publisher's own stream: the shared rng on
                # the serial kernel (identical draws to the
                # historical behaviour), a private per-entity
                # stream on the windowed kernel.
                topic = _sim.entity_rng(target.node_id).choices(
                    topics, weights
                )[0]
            payload = (
                HONEST_MARKER
                + f"{target.node_id}|{seq[0]}".encode()
                + filler
            )
            try:
                if topic in self._open_topics:
                    # Open topics carry plain Waku traffic — no
                    # proof, no rate limit.
                    target.relay.publish(
                        WakuMessage(payload=payload), topic=topic
                    )
                else:
                    target.publish(payload, pubsub_topic=topic)
            except (RateLimitError, RegistrationError):
                return  # own limit hit, or not registered yet
            seq[0] += 1
            self._honest_published += 1
            expected = self._count_expected(topic)
            self._expected_deliveries += expected
            self._topic_published[topic] += 1
            self._topic_expected[topic] += expected

        self.net.simulator.schedule(
            start,
            lambda sim, fn=publish, nid=peer.node_id: self._periodic(
                sim, fn, interval, nid
            ),
            label=f"traffic:{peer.node_id}",
            shard=peer.node_id,
        )

    def _periodic(
        self, sim: Simulator, fn, interval: float, shard=None
    ) -> None:
        fn(sim)
        sim.schedule(
            interval,
            lambda s: self._periodic(s, fn, interval, shard),
            "traffic",
            shard=shard,
        )

    def _schedule_adversaries(self) -> Optional[AdversaryEngine]:
        """Enroll every adversary group into one engine and launch it.

        Parallel mode: the tail peers are pinned to shard 0, so only
        shard 0's owner holds them and builds the engine. Every other
        worker replays the *funding* side effect — the agents' wallet
        balances are direct chain-account state every replica must
        agree on — and skips the engine (strategies consume no RNG, so
        there is no stream to keep aligned)."""
        mix = self.spec.adversaries
        groups = mix.groups
        if not groups:
            return None
        net = self.net
        stake = net.config.stake_wei
        if self.spec.parallel_workers and 0 not in net.simulator.owned:
            tail_ids = net.roster[len(net.roster) - mix.total_count :]
            cursor = 0
            for group in groups:
                budget_wei = group.budget_stakes * stake
                for _ in range(group.count):
                    node_id = tail_ids[cursor]
                    cursor += 1
                    account = net.chain.get_account(f"eoa:{node_id}")
                    account.balance = max(0, budget_wei - stake)
            return None
        from ..adversaries.engine import AdversaryEngine
        from ..adversaries.strategies import build_strategy

        engine = AdversaryEngine(
            net,
            start=mix.start,
            # Parallel runs feed the probe at barriers (a worker only
            # sees its own peers' deliveries live); the serial
            # kernel reads the recorders directly.
            spam_delivered_probe=(
                (lambda: self._spam_feed)
                if self.spec.parallel_workers
                else self._spam_delivered_total
            ),
            max_series_samples=(
                SERIES_MAX_POINTS if self.spec.streaming_metrics else None
            ),
        )
        tail = net.peers[len(net.peers) - mix.total_count :]

        def enroll() -> None:
            cursor = 0
            for group in groups:
                for _ in range(group.count):
                    peer = tail[cursor]
                    cursor += 1
                    # An explicit params-level burst wins over the
                    # group default (both reach the factory as the
                    # soft `burst`).
                    params = dict(group.params)
                    burst = params.pop("burst", group.burst)
                    engine.add_agent(
                        peer,
                        build_strategy(
                            group.strategy, burst=burst, **params
                        ),
                        budget_wei=group.budget_stakes * stake,
                        target_topics=group.target_topics,
                    )
            engine.launch()

        if self.spec.parallel_workers:
            # The engine's tick and the agents' topic-subscribe
            # broadcasts must key on one partition-invariant origin.
            with net.simulator.build_context("adversary-engine"):
                enroll()
        else:
            enroll()
        return engine

    def _watchtower_dial_filter(self, neighbor: str, now: float) -> bool:
        """Is ``neighbor`` still dialable at ``now``? Parallel dial
        plans draw from the static roster, so a restarting service must
        skip peers the churn plan removed — by the plan's clock, which
        every worker shares, not by partition-local network state."""
        plan = self._churn_plan
        if plan is None:
            return True
        left_at = plan.leave_time_of.get(neighbor)
        return left_at is None or left_at > now

    def _build_watchtowers(self) -> None:
        """Start the delegated-enforcement services and enroll the
        delegating light peers (round-robin across services).

        Parallel mode: services are pinned to shard 0. The owner
        builds them for real; every other worker replays the shared
        facts — the service's chain account, its overlay endpoint and
        dial links, and each delegator's fee transfer — then flips
        slash reporting off on the delegators it owns."""
        wspec = self.spec.watchtowers
        if wspec is None:
            return
        from ..watchtower.service import (
            WatchtowerService,
            watchtower_dial_plan,
        )

        net = self.net
        if wspec.topics:
            topics = list(wspec.topics)
        else:
            # Default: every RLN-protected topic in the scenario.
            topics = [DEFAULT_PUBSUB_TOPIC] + [
                t.name for t in self.spec.topics if t.rln_protected
            ]
        if self.spec.parallel_workers:
            sim = net.simulator
            owns_services = 0 in sim.owned
            if owns_services:
                self._watchtower_dir = tempfile.mkdtemp(
                    prefix="watchtower-"
                )
                for service_id in wspec.service_ids():
                    service = WatchtowerService(
                        net,
                        service_id,
                        store_path=os.path.join(
                            self._watchtower_dir, f"{service_id}.sqlite"
                        ),
                        topics=topics,
                        reward_cut=wspec.reward_cut,
                        delegation_fee_wei=wspec.delegation_fee_wei,
                        sync_interval=wspec.sync_interval,
                        degree=wspec.degree,
                    )
                    service.dial_filter = self._watchtower_dial_filter
                    with sim.build_context(service_id):
                        service.start()
                    self._watchtowers.append(service)
            else:
                for service_id in wspec.service_ids():
                    net.chain.create_account(f"eoa:{service_id}", 0)
                    net.network.attach_remote(service_id)
                    # Mirror the owner's build-time dials (the plan is
                    # a shared entity stream) so owned peers hold
                    # their half of each link.
                    for neighbor in watchtower_dial_plan(
                        net, service_id, wspec.degree
                    ):
                        net.network.connect(service_id, neighbor)
            honest_ids = [
                nid
                for nid in net.roster
                if nid not in self._adversary_ids
            ]
            if wspec.delegate_fraction >= 1.0:
                delegators = honest_ids
            else:
                count = round(len(honest_ids) * wspec.delegate_fraction)
                delegators = sim.entity_rng("wt-delegate").sample(
                    honest_ids, min(count, len(honest_ids))
                )
            service_ids = wspec.service_ids()
            for index, node_id in enumerate(delegators):
                service_id = service_ids[index % len(service_ids)]
                if owns_services:
                    self._watchtowers[
                        index % len(self._watchtowers)
                    ].delegate_id(node_id, f"eoa:{node_id}")
                else:
                    net.chain.transfer_value(
                        f"eoa:{node_id}",
                        f"eoa:{service_id}",
                        wspec.delegation_fee_wei,
                    )
                peer = net.peer_named(node_id)
                if peer is not None:
                    peer.disable_slash_reporting()
            return
        self._watchtower_dir = tempfile.mkdtemp(prefix="watchtower-")
        for service_id in wspec.service_ids():
            service = WatchtowerService(
                net,
                service_id,
                store_path=os.path.join(
                    self._watchtower_dir, f"{service_id}.sqlite"
                ),
                topics=topics,
                reward_cut=wspec.reward_cut,
                delegation_fee_wei=wspec.delegation_fee_wei,
                sync_interval=wspec.sync_interval,
                degree=wspec.degree,
            )
            service.start()
            self._watchtowers.append(service)
        honest = self._honest_peers()
        if wspec.delegate_fraction >= 1.0:
            delegators = honest
        else:
            count = round(len(honest) * wspec.delegate_fraction)
            delegators = net.simulator.rng.sample(
                honest, min(count, len(honest))
            )
        for index, peer in enumerate(delegators):
            self._watchtowers[index % len(self._watchtowers)].delegate(
                peer
            )

    def _schedule_faults(self) -> None:
        """Arm the spec's crash/restart fault plans.

        Parallel mode: only the worker owning the service holds a live
        object to crash; it keys both events on a per-fault build
        context so the schedule is partition-invariant, and shards
        them on the service id (pinned to 0) so crash descendants
        originate from the service's own counter."""
        if not self.spec.faults:
            return
        sim = self.net.simulator
        by_id = {s.service_id: s for s in self._watchtowers}
        if self.spec.parallel_workers:
            for fault in self.spec.faults:
                service = by_id.get(fault.target)
                if service is None:
                    continue  # another worker owns it
                with sim.build_context(f"fault:{fault.target}"):
                    sim.schedule(
                        fault.crash_at,
                        lambda _sim, svc=service: svc.crash(),
                        label=f"fault-crash:{fault.target}",
                        shard=fault.target,
                    )
                    if fault.restart_at is not None:
                        sim.schedule(
                            fault.restart_at,
                            lambda _sim, svc=service: svc.restart(),
                            label=f"fault-restart:{fault.target}",
                            shard=fault.target,
                        )
            return
        for fault in self.spec.faults:
            service = by_id[fault.target]
            sim.schedule(
                fault.crash_at,
                lambda _sim, svc=service: svc.crash(),
                label=f"fault-crash:{fault.target}",
            )
            if fault.restart_at is not None:
                sim.schedule(
                    fault.restart_at,
                    lambda _sim, svc=service: svc.restart(),
                    label=f"fault-restart:{fault.target}",
                )

    # -- churn -------------------------------------------------------------------

    def _schedule_churn(self) -> None:
        """Serial churn: live decisions against the shared stream
        (the historical draw sequence, bit for bit)."""
        churn = self.spec.churn
        if not churn.active:
            return
        sim = self.net.simulator

        if churn.join_interval and churn.max_joins:

            def join(_sim: Simulator) -> None:
                if self._joined >= churn.max_joins:
                    return
                self.net.add_peer()
                self._joined += 1
                if self._joined < churn.max_joins:
                    sim.schedule(churn.join_interval, join, "churn-join")

            sim.schedule(
                churn.start + churn.join_interval, join, "churn-join"
            )

        if churn.leave_interval and churn.max_leaves:

            def leave(_sim: Simulator) -> None:
                if self._left >= churn.max_leaves:
                    return
                candidates = [
                    p.node_id
                    for p in self._honest_peers()
                    if p.node_id not in self._publisher_ids
                ]
                if len(candidates) > 1:
                    victim = sim.rng.choice(candidates)
                    self.net.remove_peer(victim)
                    # Victims are always honest (candidates exclude
                    # adversaries), so each drop is an honest one.
                    for name, subscribers in (
                        self._topic_subscribers.items()
                    ):
                        if victim in subscribers:
                            subscribers.discard(victim)
                            self._honest_subscribers[name] -= 1
                    self._left += 1
                if self._left < churn.max_leaves:
                    sim.schedule(churn.leave_interval, leave, "churn-leave")

            sim.schedule(
                churn.start + churn.leave_interval, leave, "churn-leave"
            )

    def _plan_churn(self) -> Optional[ChurnPlan]:
        """Precompute every parallel churn decision (see ChurnPlan).

        The plan walks both grids chronologically (joins before leaves
        at ties, matching the serial scheduling order), maintaining
        the alive list the way the live run would: roster order,
        joiners appended, victims removed. Leave attempts that find at
        most one candidate draw nothing and remove no one — the grid
        keeps ticking until the success quota or the horizon, exactly
        like the serial rescheduling loop."""
        churn = self.spec.churn
        if not self.spec.parallel_workers or not churn.active:
            return None
        spec = self.spec
        net = self.net
        jr = net.simulator.entity_rng("churn")
        duration = spec.duration
        plan = ChurnPlan()
        alive: List[str] = list(net.roster)
        grid: List[Tuple[float, int, int]] = []
        if churn.join_interval and churn.max_joins:
            t = churn.start + churn.join_interval
            k = 0
            while k < churn.max_joins and t <= duration:
                grid.append((t, 0, k))
                k += 1
                t += churn.join_interval
        if churn.leave_interval and churn.max_leaves:
            t = churn.start + churn.leave_interval
            j = 0
            while t <= duration:
                grid.append((t, 1, j))
                j += 1
                t += churn.leave_interval
        grid.sort()
        successes = 0
        for t, tag, index in grid:
            if tag == 0:
                joiner = f"peer-{spec.peers + index}"
                fanout = (
                    net._degree
                    if net._degree is not None
                    else len(alive)
                )
                neighbors = jr.sample(alive, min(fanout, len(alive)))
                names = []
                for topic in spec.topics:
                    fraction = topic.subscribe_fraction
                    if fraction <= 0:
                        continue
                    if fraction < 1.0 and jr.random() >= fraction:
                        continue
                    names.append(topic.name)
                plan.joins.append(
                    (t, index, joiner, neighbors, tuple(names))
                )
                alive.append(joiner)
            else:
                if successes >= churn.max_leaves:
                    continue
                candidates = [
                    nid
                    for nid in alive
                    if nid not in self._adversary_ids
                    and nid not in self._publisher_ids
                ]
                if len(candidates) > 1:
                    victim = jr.choice(candidates)
                    alive.remove(victim)
                    plan.leaves.append((t, successes, victim))
                    plan.leave_time_of[victim] = t
                    successes += 1
        return plan

    def _arm_churn(self) -> None:
        """Arm the plan's events on the shards this worker owns;
        declare every foreign joiner as a ghost so its registration
        transaction and overlay endpoint exist on this replica."""
        plan = self._churn_plan
        if plan is None:
            return
        net = self.net
        sim = net.simulator
        shard_plan = sim.plan
        owned = sim.owned
        for t, k, joiner, neighbors, names in plan.joins:
            self._join_topics[joiner] = names
            if shard_plan.shard_of(joiner) in owned:
                with sim.build_context(f"churn-join:{k}"):
                    sim.schedule(
                        t,
                        lambda _sim, nid=joiner, dial=neighbors: (
                            self._parallel_join(nid, dial)
                        ),
                        label=f"churn-join:{joiner}",
                        shard=joiner,
                    )
            else:
                net.declare_ghost(joiner)
                net.network.set_remote_presence(
                    joiner,
                    t,
                    plan.leave_time_of.get(joiner, float("inf")),
                )
        for t, j, victim in plan.leaves:
            if shard_plan.shard_of(victim) in owned:
                with sim.build_context(f"churn-leave:{j}"):
                    sim.schedule(
                        t,
                        lambda _sim, nid=victim: self._parallel_leave(
                            nid
                        ),
                        label=f"churn-leave:{victim}",
                        shard=victim,
                    )
            elif victim not in self._join_topics:
                # Initial-roster ghost churning out elsewhere: its
                # remote endpoint stops being dialable at the plan's
                # leave time (joiner victims set their window above).
                net.network.set_remote_presence(victim, 0.0, t)

    def _parallel_join(self, node_id: str, neighbors: List[str]) -> None:
        self.net.add_peer(node_id=node_id, neighbors=list(neighbors))
        self._joined += 1

    def _parallel_leave(self, node_id: str) -> None:
        self.net.remove_peer(node_id)
        self._left += 1

    def _build_expected_tracker(self) -> None:
        """Turn the churn plan into the per-topic delivery-expectation
        schedule (parallel only; without churn the static wiring
        counts are already layout-invariant)."""
        plan = self._churn_plan
        if plan is None:
            return
        tracker = ExpectedTracker(self._honest_subscribers)
        for t, _k, _joiner, _neighbors, names in plan.joins:
            tracker.add(DEFAULT_PUBSUB_TOPIC, t, 1)
            for name in names:
                tracker.add(name, t, 1)
        for t, _j, victim in plan.leaves:
            tracker.add(DEFAULT_PUBSUB_TOPIC, t, -1)
            for name, subscribers in self._topic_subscribers.items():
                if name == DEFAULT_PUBSUB_TOPIC:
                    continue
                if victim in subscribers:
                    tracker.add(name, t, -1)
            planned = self._join_topics.get(victim)
            if planned:
                for name in planned:
                    tracker.add(name, t, -1)
        self._expected = tracker

    # -- baseline comparison ------------------------------------------------------

    def _run_baseline(self) -> Dict[str, float]:
        """Throw the equivalent flood at an unprotected relay network.

        Each adversary group maps to flooders at its *resolved* burst
        rate (params-level burst override included, exactly as
        :meth:`_schedule_adversaries` resolves it) over its attack
        window: the declared epochs for ``burst-flood``, the whole
        scenario for persistent strategies. Adaptive strategies change
        burst mid-attack, so for them the nominal burst makes this an
        approximation, not like-for-like.

        Fully self-contained and deterministic in ``(spec, seed)`` —
        parallel runs execute it once, on the coordinator, after the
        barrier drive."""
        from ..baselines.relay_baselines import BaselineNetwork, FloodSpammer

        spec = self.spec
        mix = spec.adversaries
        baseline = BaselineNetwork(
            peer_count=spec.peers, seed=spec.seed, degree=spec.degree
        )
        epoch_length = spec.build_config().epoch_length
        flooders = []

        def arm() -> Set[str]:
            for group in mix.groups:
                params = dict(group.params)
                burst = params.pop("burst", group.burst)
                rate = max(burst, 1) / epoch_length
                window = max(spec.duration - mix.start, epoch_length)
                if group.strategy == "burst-flood":
                    epochs = max(int(params.get("epochs", 1)), 1)
                    window = epochs * epoch_length
                for _ in range(max(group.count, 1)):
                    flooder = FloodSpammer(
                        baseline,
                        f"peer-{len(flooders)}",
                        rate_per_second=rate,
                    )
                    flooders.append(flooder)
                    flooder.run(window)
            if not flooders:
                # compare_baseline without adversaries: one reference
                # flooder.
                flooder = FloodSpammer(
                    baseline,
                    "peer-0",
                    rate_per_second=BASELINE_BURST / epoch_length,
                )
                flooders.append(flooder)
                flooder.run(BASELINE_EPOCHS * epoch_length)
            return {f.node_id for f in flooders}

        total, per_peer = baseline.spam_reach(spec.duration, arm)
        return {
            "baseline_spam_sent": float(sum(f.sent for f in flooders)),
            "baseline_spam_delivered": float(total),
            "baseline_spam_per_honest_peer": per_peer,
        }

    # -- execution ------------------------------------------------------------------

    def _prepare(self) -> Optional[AdversaryEngine]:
        """Arm every process on an already materialized network and
        flip the chain into replica mode (parallel paths only).

        Build steps (registration mining, watchtower delegation, agent
        funding) mutate the chain directly and identically on every
        cell; the chain then switches to replica mode so every runtime
        mutation joins the globally ordered barrier op stream. Blocks
        are produced by :meth:`~repro.eth.chain.Blockchain.replica_apply`
        on the block grid, so the periodic miner stays off."""
        net = self.net
        with quiescent_gc():
            net.register_all()
            self._build_watchtowers()
            net.start(mine_blocks=False)
            self._schedule_traffic()
            engine = self._schedule_adversaries()
            self._churn_plan = self._plan_churn()
            self._arm_churn()
            self._build_expected_tracker()
            self._schedule_faults()
            net.chain.enter_replica_mode(net.simulator.consume_order_key)
        return engine

    def _run_windowed(self):
        """Drive the run on the windowed kernel behind barrier sync."""
        from .parallel import drive_forked, drive_in_process

        if self.workers <= 1:
            engine = self._prepare()
            report = drive_in_process(self, engine)
            self.net.stop()
            return report
        return drive_forked(self, self.workers)

    def run(self) -> ScenarioResult:
        try:
            return self._run()
        finally:
            # Stop every watchtower and drop its files, also on a raise.
            for service in self._watchtowers:
                service.stop()
                service.close()
            if self._watchtower_dir is not None:
                shutil.rmtree(self._watchtower_dir, ignore_errors=True)

    def _run(self) -> ScenarioResult:
        spec = self.spec
        started_wall = time.perf_counter()

        if spec.parallel_workers:
            attack_report = self._run_windowed()
        else:
            net = self.net
            with quiescent_gc():
                net.register_all()
                self._build_watchtowers()
                net.start()
                self._schedule_traffic()
                engine = self._schedule_adversaries()
                self._schedule_churn()
                self._schedule_faults()
                net.run(spec.duration)
                net.stop()
            attack_report = (
                engine.report() if engine is not None else None
            )
        net = self.net

        honest_receivers = [
            nid for nid in self._received if nid not in self._adversary_ids
        ]
        honest_delivered = sum(
            self._received[nid][0] for nid in honest_receivers
        )
        spam_delivered = sum(
            self._received[nid][1] for nid in honest_receivers
        )
        # A publisher delivers its own message locally, so each honest
        # message can reach the honest peers alive when it was sent.
        expected = self._expected_deliveries
        metrics = net.metrics
        chain_events = net.chain.events_since(0)
        members_slashed = sum(
            1 for e in chain_events if e.name == "MemberRemoved"
        )
        # Delegated-enforcement accounting (all zero without services).
        watchtower_summary: Dict[str, Dict[str, object]] = {}
        watchtower_rewards = 0
        delegation_fees = 0
        recovery_time = 0.0
        watchtower_submitted = 0
        missed_slashes = 0
        if self._watchtowers or self._wt_override is not None:
            if self._wt_override is not None:
                # Forked parallel run: summaries and evidence shipped
                # from the worker that owned the services (this
                # process holds no live service objects).
                rows, evidence = self._wt_override
            else:
                rows = []
                evidence = set()
                for service in self._watchtowers:
                    rows.append((service.service_id, service.summary()))
                    evidence.update(service.store.evidence_pks())
            detected = set(self._detected_pks) | set(evidence)
            for service_id, summary in rows:
                watchtower_summary[service_id] = summary
                watchtower_rewards += summary["rewards_wei"]
                delegation_fees += summary["fees_wei"]
                recovery_time += summary["recovery_time"]
                watchtower_submitted += summary["submitted"]
            slashed_pks = {
                e.args["pk"]
                for e in chain_events
                if e.name == "MemberRemoved"
            }
            missed_slashes = len(detected - slashed_pks)
        counters = {
            name: value
            for name, value in sorted(metrics.counters.items())
            if name.startswith(_COUNTER_PREFIXES) or name in _COUNTER_NAMES
        }
        extras: Dict[str, float] = {}
        if net.verification_cache is not None:
            if self._memo_override is not None:
                hits, misses = self._memo_override
                total_lookups = hits + misses
                extras["verification_cache_hit_rate"] = (
                    hits / total_lookups if total_lookups else 0.0
                )
            else:
                extras["verification_cache_hit_rate"] = (
                    net.verification_cache.hit_rate
                )
        if not spec.parallel_workers:
            # How much replica hashing the shared store absorbed: each
            # deduped event would have cost O(depth) hashes in an
            # independent replica. (Parallel runs skip these: each
            # worker holds a private store, so the sharing counters
            # are per-partition artifacts, not run facts.)
            store_stats = net.membership_store.stats()
            extras["membership_events"] = float(store_stats["events"])
            extras["membership_events_deduped"] = float(
                store_stats["events_deduped"]
            )
            # Views never fork; kept for the fingerprint (ROADMAP item 1).
            extras["membership_forks"] = 0.0
            if net.config.membership_sub_depth is not None:
                # Sharded registry only: how much of the tree-of-trees
                # was actually built. Gated on the opt-in flag so flat
                # runs keep their extras keys (and fingerprints) as-is.
                extras["membership_subtrees_materialized"] = float(
                    store_stats["materialized_subtrees"]
                )
        elif net.config.membership_sub_depth is not None:
            # Parallel: WHICH subtrees get built is a run fact (the
            # union of every worker's materialized index sets equals
            # the single-store set); HOW MANY events each store
            # deduped is not — so only this extra survives the mode
            # switch.
            if self._subtree_override is not None:
                extras["membership_subtrees_materialized"] = float(
                    self._subtree_override
                )
            else:
                extras["membership_subtrees_materialized"] = float(
                    sum(
                        len(indices)
                        for indices in (
                            net.membership_store.materialized_indices()
                        ).values()
                    )
                )
        if net.config.eager_nullifier_gc:
            # Epoch-grid GC is opt-in; when on, report how much
            # nullifier state it reclaimed and what stayed live across
            # every peer and topic (the O(active peers x window) bound).
            if self._nullifier_override is not None:
                pruned, live = self._nullifier_override
            else:
                pruned = 0
                live = 0
                for peer in net.peers:
                    for validator in peer.rln_topics.values():
                        pruned += (
                            validator.nullifier_map.auto_pruned_entries
                        )
                        live += validator.nullifier_map.entry_count
            extras["nullifier_entries_pruned"] = float(pruned)
            extras["nullifier_entries_live"] = float(live)
        if spec.compare_baseline:
            extras.update(self._run_baseline())
        topic_summary: Dict[str, Dict[str, float]] = {}
        if spec.topics:
            for name in spec.topic_names:
                delivered, spam = self._topic_counts[name]
                topic_expected = self._topic_expected[name]
                topic_summary[name] = {
                    "subscribers": float(self._count_expected(name)),
                    "honest_published": float(self._topic_published[name]),
                    "honest_delivered": float(delivered),
                    "delivery_rate": (
                        delivered / topic_expected if topic_expected else 0.0
                    ),
                    "spam_delivered": float(spam),
                }

        # Slashing settles on-chain during the run; read the final
        # flow of funds straight off the chain. Every slashed stake
        # splits into burn + reporter reward (contract invariant), so
        # rewards are measured as the unburnt remainder of lost stakes
        # rather than re-derived from the burn fraction.
        stake_lost = members_slashed * net.contract.stake_wei
        reporter_rewards = stake_lost - net.chain.burnt_wei
        series: Dict[str, List[float]] = (
            attack_report.series_dict() if attack_report else {}
        )
        spam_published = attack_report.spam_sent if attack_report else 0
        if attack_report:
            cost = attack_report.cost_per_delivered_spam(spam_delivered)
            if cost != float("inf"):
                extras["cost_per_delivered_spam_wei"] = cost
            latencies = attack_report.slash_latencies
            if latencies:
                extras["mean_slash_latency"] = sum(latencies) / len(
                    latencies
                )
        peer_slashes = (
            self._peer_slashes_override
            if self._peer_slashes_override is not None
            else sum(
                p.slashes_submitted
                for p in (net.peers + net.departed)
            )
        )

        return ScenarioResult(
            scenario=spec.name,
            seed=spec.seed,
            peers_started=spec.peers,
            peers_final=(
                self._peers_final_override
                if self._peers_final_override is not None
                else len(net.peers)
            ),
            joined=self._joined,
            left=self._left,
            honest_published=self._honest_published,
            honest_delivered=honest_delivered,
            delivery_rate=honest_delivered / expected if expected else 0.0,
            spam_published=spam_published,
            spam_delivered=spam_delivered,
            spam_per_honest_peer=(
                spam_delivered / len(honest_receivers)
                if honest_receivers
                else 0.0
            ),
            slashes_submitted=watchtower_submitted + peer_slashes,
            members_slashed=members_slashed,
            stake_burnt=net.chain.burnt_wei,
            reporter_rewards=reporter_rewards,
            attacker_spend=(
                attack_report.spend_wei if attack_report else 0
            ),
            identity_rotations=(
                attack_report.rotations if attack_report else 0
            ),
            watchtower_rewards=watchtower_rewards,
            delegation_fees=delegation_fees,
            missed_slashes=missed_slashes,
            recovery_time=recovery_time,
            watchtowers=watchtower_summary,
            series=series,
            topics=topic_summary,
            proof_verifications=metrics.counter("rln.proof_verifications"),
            verification_cache_hits=metrics.counter("rln.proof_cache_hits"),
            counters=counters,
            sim_time=net.simulator.now,
            events_processed=net.simulator.events_processed,
            wall_clock_seconds=time.perf_counter() - started_wall,
            extras=extras,
        )


def run_scenario(
    spec: ScenarioSpec,
    peers: Optional[int] = None,
    duration: Optional[float] = None,
    seed: Optional[int] = None,
    shards: Optional[int] = None,
    parallel_workers: Optional[int] = None,
) -> ScenarioResult:
    """Run ``spec`` (optionally rescaled) and return its result."""
    return ScenarioRunner(
        spec.scaled(peers, duration, seed, shards, parallel_workers)
    ).run()
