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

The build is one path for both kernels. Every step that draws or
schedules calls the kernel's hooks unconditionally (``entity_rng``,
``ephemeral_rng``, ``build_context``, ``schedule(shard=...)``), which
the serial kernel answers with its shared stream and plain heap, so a
spec with a worker count needs a subclass only for what really
differs: :class:`~repro.scenarios.parallel.WindowedScenarioRunner`
(planned churn, replays on workers that do not hold an entity, the
barrier drive and the merge of forked workers' measurements).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Set

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
    from ..adversaries.report import AttackReport
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
    """One scenario execution; create fresh per run.

    A spec with a worker count gets a
    :class:`~repro.scenarios.parallel.WindowedScenarioRunner` instead:
    :meth:`__new__` picks the class, so every caller of this one (the
    CLI, :func:`run_scenario`, the benchmarks) reaches it unchanged.
    """

    def __new__(cls, spec: ScenarioSpec) -> "ScenarioRunner":
        if spec.parallel_workers:
            from .parallel import WindowedScenarioRunner

            cls = WindowedScenarioRunner
        return super().__new__(cls)

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        roster = [f"peer-{i}" for i in range(spec.peers)]
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
        #: by wiring and churn so a publish costs O(1), not O(peers)).
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
        self.net: Optional[WakuRlnRelayNetwork] = None
        self._build()

    # -- construction -----------------------------------------------------------

    def _build(self) -> None:
        """Build the network (the windowed runner may leave it to its
        workers)."""
        self._materialize()

    def _materialize(self, **options: object) -> None:
        """Build the network, ``options`` passed on to
        :class:`~repro.core.protocol.WakuRlnRelayNetwork`, and wire
        every roster entry's topics."""
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
                pre_registered=spec.pre_registered,
                **options,
            )
        net = self.net
        for node_id in net.roster:
            self._wire_topics(node_id, net.peer_named(node_id))
        net.on_peer_added(self._on_join)

    # -- wiring ----------------------------------------------------------------

    def _wire_topics(
        self, node_id: str, peer: Optional[WakuRlnRelayPeer]
    ) -> None:
        """Subscribe ``node_id`` to the spec's extra topics by
        seed-deterministic per-topic coin flips, record it in the
        subscription maps (global facts the publish path reads) and, if
        ``peer`` is built here, join its topics and attach its
        recorders. The coins come from ``ephemeral_rng("topic:<id>")``:
        the shared stream on the serial kernel, a one-shot stream of
        the node's own on the windowed kernel."""
        sim = self.net.simulator
        coins = None
        with sim.build_context(node_id):
            for topic in self.spec.topics:
                fraction = topic.subscribe_fraction
                if fraction <= 0:
                    continue
                if fraction < 1.0:
                    if coins is None:
                        coins = sim.ephemeral_rng(f"topic:{node_id}")
                    if coins.random() >= fraction:
                        continue
                self._topic_subscribers[topic.name].add(node_id)
                if node_id not in self._adversary_ids:
                    self._honest_subscribers[topic.name] += 1
                if peer is None:
                    continue
                if topic.rln_protected:
                    peer.join_rln_topic(topic.name)
                else:
                    peer.join_open_topic(topic.name)
        if peer is not None:
            self._instrument(peer)

    def _on_join(self, peer: WakuRlnRelayPeer) -> None:
        """Churn joiner: same topic wiring + recorders as the initial
        population (joiners are always honest — adversaries come from
        the initial peer list's tail)."""
        self._topic_subscribers[DEFAULT_PUBSUB_TOPIC].add(peer.node_id)
        self._honest_subscribers[DEFAULT_PUBSUB_TOPIC] += 1
        self._wire_topics(peer.node_id, peer)

    def _instrument(self, peer: WakuRlnRelayPeer) -> None:
        """Count ``peer``'s deliveries and, with watchtowers, note the
        double-signals its validators detect."""
        peer.on_topic_payload(_Recorder(self, peer.node_id))
        if self.spec.watchtowers is not None:
            peer.on_evidence(self._note_evidence)

    def _note_evidence(self, evidence) -> None:
        """Any validator in the network detected a double-signal; the
        offender pk feeds the ``missed_slashes`` accounting."""
        self._detected_pks.add(int(evidence.commitment.element))

    def _honest_ids(self) -> List[str]:
        """The roster's honest ids, in roster order."""
        return [
            nid for nid in self.net.roster if nid not in self._adversary_ids
        ]

    def _spam_delivered_total(self) -> int:
        """Cumulative spam deliveries to honest peers."""
        return sum(
            counts[1]
            for nid, counts in self._received.items()
            if nid not in self._adversary_ids
        )

    def _spam_probe(self) -> int:
        """What the adversary engine reads as spam delivered so far."""
        return self._spam_delivered_total()

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
        one published message's delivery potential, O(1): wiring and
        churn maintain the count."""
        return self._honest_subscribers[topic]

    def _schedule_traffic(self) -> None:
        """Pick the publishers from the ``traffic`` stream and arm
        each at an offset drawn from its own ``traffic:<id>`` stream
        (both the shared stream on the serial kernel)."""
        traffic = self.spec.traffic
        if traffic.messages_per_epoch <= 0 or traffic.active_fraction <= 0:
            return
        net = self.net
        sim = net.simulator
        interval = net.config.epoch_length / traffic.messages_per_epoch
        honest_ids = self._honest_ids()
        count = max(1, round(len(honest_ids) * traffic.active_fraction))
        chosen = sim.entity_rng("traffic").sample(
            honest_ids, min(count, len(honest_ids))
        )
        self._publisher_ids = set(chosen)
        for node_id in chosen:
            peer = net.peer_named(node_id)
            if peer is None:
                continue
            offset = sim.entity_rng(f"traffic:{node_id}").uniform(
                0, interval
            )
            with sim.build_context(node_id):
                self._arm_publisher(peer, traffic.start + offset, interval)

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
        """Enroll every adversary group into one engine and launch it."""
        mix = self.spec.adversaries
        groups = mix.groups
        if not groups:
            return None
        from ..adversaries.engine import AdversaryEngine
        from ..adversaries.strategies import build_strategy

        net = self.net
        stake = net.config.stake_wei
        engine = AdversaryEngine(
            net,
            start=mix.start,
            spam_delivered_probe=self._spam_probe,
            max_series_samples=(
                SERIES_MAX_POINTS if self.spec.streaming_metrics else None
            ),
        )
        tail = net.peers[len(net.peers) - mix.total_count :]
        cursor = 0
        # The engine's tick and the agents' topic-subscribe broadcasts
        # key on one origin (a no-op on the serial kernel).
        with net.simulator.build_context("adversary-engine"):
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
                        build_strategy(group.strategy, burst=burst, **params),
                        budget_wei=group.budget_stakes * stake,
                        target_topics=group.target_topics,
                    )
            engine.launch()
        return engine

    def _delegators(self) -> List[str]:
        """The honest ids that delegate to a watchtower, drawn from the
        ``wt-delegate`` stream (all of them at fraction 1)."""
        fraction = self.spec.watchtowers.delegate_fraction
        honest_ids = self._honest_ids()
        if fraction >= 1.0:
            return honest_ids
        count = round(len(honest_ids) * fraction)
        return self.net.simulator.entity_rng("wt-delegate").sample(
            honest_ids, min(count, len(honest_ids))
        )

    def _build_watchtowers(self) -> None:
        """Start the delegated-enforcement services and enroll the
        delegating light peers (round-robin across services)."""
        wspec = self.spec.watchtowers
        if wspec is None:
            return
        from ..watchtower.service import WatchtowerService

        net = self.net
        sim = net.simulator
        if wspec.topics:
            topics = list(wspec.topics)
        else:
            # Default: every RLN-protected topic in the scenario.
            topics = [DEFAULT_PUBSUB_TOPIC] + [
                t.name for t in self.spec.topics if t.rln_protected
            ]
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
            with sim.build_context(service_id):
                service.start()
            self._watchtowers.append(service)
        services = self._watchtowers
        for index, node_id in enumerate(self._delegators()):
            services[index % len(services)].delegate_id(
                node_id, f"eoa:{node_id}"
            )
            peer = net.peer_named(node_id)
            if peer is not None:
                peer.disable_slash_reporting()

    def _schedule_faults(self) -> None:
        """Arm the spec's crash/restart fault plans on the services
        this process holds. Each fault's events key on its own build
        context and shard on the service id, so the windowed kernel
        orders them the same under any partition."""
        if not self.spec.faults:
            return
        sim = self.net.simulator
        by_id = {s.service_id: s for s in self._watchtowers}
        for fault in self.spec.faults:
            service = by_id.get(fault.target)
            if service is None:
                continue
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

    # -- churn -------------------------------------------------------------------

    def _schedule_churn(self) -> None:
        """Live churn: each leave draws its victim from the shared
        stream against the live peer list."""
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
                    for p in self.net.peers
                    if p.node_id not in self._adversary_ids
                    and p.node_id not in self._publisher_ids
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

        Fully self-contained and deterministic in ``(spec, seed)``: a
        forked run executes it once, on the coordinator."""
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

    def _arm(self, mine_blocks: bool = True) -> Optional[AdversaryEngine]:
        """Register every peer, start the network and arm every process
        the spec declares (watchtowers, traffic, adversaries, churn,
        faults); returns the adversary engine, if any."""
        net = self.net
        net.register_all()
        self._build_watchtowers()
        net.start(mine_blocks=mine_blocks)
        self._schedule_traffic()
        engine = self._schedule_adversaries()
        self._schedule_churn()
        self._schedule_faults()
        return engine

    def _drive(self) -> Optional[AttackReport]:
        """Run the serial kernel to the spec's end; returns the attack
        report, if any."""
        net = self.net
        with quiescent_gc():
            engine = self._arm()
            net.run(self.spec.duration)
            net.stop()
        return engine.report() if engine is not None else None

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

    # -- result ------------------------------------------------------------------

    def _facts(self) -> Dict[str, object]:
        """The run-end state the result reads off the live objects (a
        forked windowed run merges its workers' instead): service
        summaries and evidence, live peers, peer-submitted slashes,
        memo hits and misses, built sub-trees and nullifier GC
        totals."""
        net = self.net
        config = net.config
        cache = net.verification_cache
        watchtowers = None
        if self._watchtowers:
            rows = []
            evidence: Set[int] = set()
            for service in self._watchtowers:
                rows.append((service.service_id, service.summary()))
                evidence.update(service.store.evidence_pks())
            watchtowers = (rows, evidence)
        nullifier = None
        if config.eager_nullifier_gc:
            pruned = live = 0
            for peer in net.peers:
                for validator in peer.rln_topics.values():
                    pruned += validator.nullifier_map.auto_pruned_entries
                    live += validator.nullifier_map.entry_count
            nullifier = (pruned, live)
        return {
            "watchtowers": watchtowers,
            "peers_final": len(net.peers),
            # Departed peers submitted slashes too before churning out.
            "slashes": sum(
                p.slashes_submitted for p in net.peers + net.departed
            ),
            "memo": (cache.hits, cache.misses) if cache is not None else None,
            "subtrees": (
                net.membership_store.materialized_indices()
                if config.membership_sub_depth is not None
                else None
            ),
            "nullifier": nullifier,
        }

    def _membership_extras(self) -> Dict[str, float]:
        """How much replica hashing the shared store absorbed: each
        deduped event would have cost O(depth) hashes in an
        independent replica."""
        stats = self.net.membership_store.stats()
        return {
            "membership_events": float(stats["events"]),
            "membership_events_deduped": float(stats["events_deduped"]),
            # Views never fork; kept for the fingerprint.
            "membership_forks": 0.0,
        }

    def _run(self) -> ScenarioResult:
        spec = self.spec
        started_wall = time.perf_counter()
        attack_report = self._drive()
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
        facts = self._facts()
        if facts["watchtowers"] is not None:
            rows, evidence = facts["watchtowers"]
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
        if facts["memo"] is not None:
            hits, misses = facts["memo"]
            lookups = hits + misses
            extras["verification_cache_hit_rate"] = (
                hits / lookups if lookups else 0.0
            )
        extras.update(self._membership_extras())
        if facts["subtrees"] is not None:
            # Sharded registry only: how much of the tree-of-trees was
            # actually built. Gated on the opt-in flag so flat runs
            # keep their extras keys (and fingerprints) as-is.
            extras["membership_subtrees_materialized"] = float(
                sum(len(indices) for indices in facts["subtrees"].values())
            )
        if facts["nullifier"] is not None:
            # Epoch-grid GC is opt-in; when on, report how much
            # nullifier state it reclaimed and what stayed live across
            # every peer and topic (the O(active peers x window) bound).
            pruned, live = facts["nullifier"]
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
        return ScenarioResult(
            scenario=spec.name,
            seed=spec.seed,
            peers_started=spec.peers,
            peers_final=facts["peers_final"],
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
            slashes_submitted=watchtower_submitted + facts["slashes"],
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
    spec: ScenarioSpec, *scale: Optional[float], **by_name: Optional[float]
) -> ScenarioResult:
    """Run ``spec``, first rescaled by :meth:`ScenarioSpec.scaled` with
    these arguments (peers, duration, seed, shards, worker count)."""
    return ScenarioRunner(spec.scaled(*scale, **by_name)).run()
