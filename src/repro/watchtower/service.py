"""The watchtower service: delegated, event-sourced slash enforcement.

A :class:`WatchtowerService` is a first-class network entity next to
the peers: it attaches its own Waku-Relay node to the overlay,
subscribes to the protected topics, and runs the same Section III
validation pipeline a routing peer runs — proof check, epoch window,
nullifier map — but on behalf of *delegating* light peers that turned
their own slash reporting off. Detected double-signals become pending
evidence; an enforcement tick submits the slash transactions and, once
the corresponding ``MemberRemoved`` events confirm, splits the
reporter reward between the service (its ``reward_cut``) and its
delegators (even split, remainder to the service).

The service is event-sourced over the chain log via one persisted
:class:`~repro.eth.cursor.EventCursor` position: ``crash()`` drops
every piece of in-memory state and detaches from the overlay;
``restart()`` rebuilds the membership replica by replaying the full
event log (enforcing only past the committed cursor), reseeds its
nullifier maps from the persisted signals, catches up on events that
fired while it was down, and resubmits evidence still pending —
exactly once per offender, no matter where the crash fell.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.config import ProtocolConfig
from ..core.epoch import EpochTracker
from ..core.peer import OUTCOME_TO_GOSSIP, wire_rln_topic
from ..core.validator import RlnMessageValidator, ValidationOutcome
from ..crypto.field import Fr
from ..crypto.keys import IdentityCommitment
from ..errors import SimulationError
from ..eth.cursor import EventCursor
from ..rln.membership import LocalGroup
from ..rln.signal import RlnSignal
from ..rln.slashing import SlashingEvidence
from ..waku.message import DEFAULT_PUBSUB_TOPIC, WakuMessage
from ..waku.relay import WakuRelayNode
from .store import WatchtowerStore


def watchtower_dial_plan(net, service_id: str, degree: int) -> List[str]:
    """The neighbours a watchtower dials at (re)start.

    Parallel mode computes the list from the service's own entity
    stream over the full roster: every worker derives the identical
    plan, so the workers that own the dialed peers can mirror the
    build-time link (build-per-worker networks hold no peer objects
    for foreign shards, and a one-sided link would drop every packet).
    Serial mode keeps the historical draw from the shared stream over
    the live peer list, bit for bit.
    """
    if getattr(net, "parallel", False):
        rng = net.simulator.entity_rng(f"wt-dial:{service_id}")
        alive = list(net.roster)
    else:
        rng = net.simulator.rng
        alive = [p.node_id for p in net.peers]
    return rng.sample(alive, min(degree, len(alive)))


class WatchtowerService:
    """One competing watcher in the delegated-enforcement market."""

    def __init__(
        self,
        net,  # WakuRlnRelayNetwork (kept untyped: layering)
        service_id: str,
        store_path: str,
        topics: Optional[List[str]] = None,
        reward_cut: float = 0.25,
        delegation_fee_wei: int = 10**15,
        sync_interval: Optional[float] = None,
        degree: int = 6,
    ) -> None:
        if not 0.0 <= reward_cut <= 1.0:
            raise SimulationError("reward_cut must be within [0, 1]")
        self.net = net
        self.service_id = service_id
        self.config: ProtocolConfig = net.config
        self.chain = net.chain
        self.contract_address = net.contract.address
        self.reward_cut = reward_cut
        self.delegation_fee_wei = delegation_fee_wei
        self.sync_interval = (
            sync_interval
            if sync_interval is not None
            else self.config.sync_interval
        )
        self.degree = degree
        self.topics = list(topics) if topics else [DEFAULT_PUBSUB_TOPIC]
        self.store = WatchtowerStore(store_path)
        self.account = self.chain.create_account(
            f"eoa:{service_id}", 0
        ).address

        #: Fault/recovery bookkeeping (survives crashes in-process;
        #: everything *stateful* lives in the store).
        self.crashes = 0
        self.replayed_events = 0
        self.recovery_time = 0.0
        self._restarted_at: Optional[float] = None
        self._recovering: Optional[set] = None
        self._running = False

        self._stop_tasks: List[Callable[[], None]] = []
        #: Optional ``(neighbor_id, now) -> bool`` gate on dial plans.
        #: Parallel runs install a churn-plan filter: the static plan
        #: may name peers that left before a *restart* re-dials, and
        #: connecting to a departed node is layout-dependent (raises
        #: where it was owned, half-links where it was remote).
        self.dial_filter: Optional[Callable[[str, float], bool]] = None
        self.relay: Optional[WakuRelayNode] = None
        self.group: Optional[LocalGroup] = None
        self._validators: Dict[str, RlnMessageValidator] = {}
        self._cursor = EventCursor(self.chain, self.contract_address)

    # -- stack construction -------------------------------------------------------

    def _build_stack(self) -> None:
        """Fresh in-memory state: relay node, membership replica,
        per-topic validators. Called at first start and every restart —
        a restarted process owns nothing but its store."""
        config = self.config
        net = self.net
        self.group = net.membership_store.local_group(config.domain or "")
        self._cursor = EventCursor(self.chain, self.contract_address)
        self.epoch_tracker = EpochTracker(
            net.network.simulator, config.epoch_length
        )
        self.relay = WakuRelayNode(
            self.service_id,
            net.network,
            gossip_params=config.gossip,
        )
        self._validators = {}
        for topic in self.topics:
            validator = wire_rln_topic(
                self.relay,
                topic,
                self._validate,
                config=config,
                verifying_key=net.verifying_key,
                group=self.group,
                epoch_tracker=self.epoch_tracker,
                cache=net.verification_cache,
                metrics=net.metrics,
            )
            validator.on_spam(
                lambda evidence, t=topic: self._on_evidence(t, evidence)
            )
            self._validators[topic] = validator

    def _dial(self) -> None:
        """Connect into the overlay (``degree`` planned peers)."""
        now = self.net.network.simulator.now
        for neighbor in watchtower_dial_plan(
            self.net, self.service_id, self.degree
        ):
            if self.dial_filter is not None and not self.dial_filter(
                neighbor, now
            ):
                continue
            self.net.network.connect(self.service_id, neighbor)

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Build the stack, bootstrap from the store, join the mesh."""
        if self._running:
            raise SimulationError(f"{self.service_id} already running")
        self.store.open()
        self._build_stack()
        self._bootstrap()
        self._dial()
        self.relay.start()
        self._schedule_tasks()
        self._running = True

    def crash(self) -> None:
        """Fault injection: the process dies. In-memory state is gone,
        timers stop, the overlay drops its links, the store closes
        (whatever was committed is all a restart will have)."""
        if not self._running:
            return
        self.crashes += 1
        for cancel in self._stop_tasks:
            cancel()
        self._stop_tasks.clear()
        self.relay.stop()
        self.net.network.detach(self.service_id)
        self.store.close()
        self.relay = None
        self.group = None
        self._validators = {}
        self._running = False

    def restart(self) -> None:
        """Recover from the persisted store: replay, catch up, resume."""
        if self._running:
            raise SimulationError(f"{self.service_id} already running")
        now = self.net.simulator.now
        self.store.open()
        self._restarted_at = now
        self._build_stack()
        self._bootstrap()
        # Recovery = the evidence in flight at restart reaching a
        # terminal state; measured by the enforcement ticks below.
        self._recovering = set(self.store.unresolved_evidence())
        self._check_recovered(now)
        self._dial()
        self.relay.start()
        self._schedule_tasks()
        self._running = True

    def stop(self) -> None:
        """Orderly shutdown at end of run (store stays open so the
        scenario runner can read the summary; ``close()`` ends it)."""
        if not self._running:
            return
        for cancel in self._stop_tasks:
            cancel()
        self._stop_tasks.clear()
        self.relay.stop()
        self._running = False

    def close(self) -> None:
        self.store.close()

    def _schedule_tasks(self) -> None:
        sim = self.net.simulator
        self._stop_tasks.append(
            sim.schedule_periodic(
                self.sync_interval,
                lambda _sim: self._tick(),
                label=f"watchtower:{self.service_id}",
                jitter=0.2,
                stagger=True,
                rng=sim.entity_rng(self.service_id),
                shard=self.service_id,
            )
        )
        self._stop_tasks.append(
            sim.schedule_periodic(
                self.config.epoch_length,
                lambda _sim: self._housekeeping(),
                label=f"watchtower-gc:{self.service_id}",
                jitter=0.2,
                stagger=True,
                rng=sim.entity_rng(self.service_id),
                shard=self.service_id,
            )
        )

    # -- bootstrap / replay ------------------------------------------------------------

    def _bootstrap(self) -> None:
        """Rebuild derived state from chain + store.

        Membership is replayed from the log's genesis (the tree is
        in-memory only); enforcement side effects run only for events
        at or past the committed cursor — everything before it was
        already acted on in a previous incarnation.
        """
        now = self.net.simulator.now
        committed = self.store.cursor()
        store = self.store
        store.begin()
        for event in self.chain.events_since(0):
            if event.contract != self.contract_address:
                continue
            self._apply_event(
                event, enforce=event.log_index >= committed, now=now
            )
            if event.log_index >= committed:
                self.replayed_events += 1
        self._cursor.seek(len(self.chain.event_log))
        # Reseed the nullifier maps so double-signals spanning the
        # crash (first share before, second after) are still caught.
        for topic, blob in store.signals():
            validator = self._validators.get(topic)
            if validator is not None:
                validator.nullifier_map.observe(RlnSignal.from_bytes(blob))
        self._submit_pending(now)
        store.commit_cursor(self._cursor.log_index)
        store.commit()

    # -- the enforcement tick -----------------------------------------------------------

    def _tick(self) -> None:
        """One atomic enforcement round: consume fresh chain events,
        resolve evidence they settle, submit pending slashes, commit
        the advanced cursor with everything it implies."""
        now = self.net.simulator.now
        store = self.store
        store.begin()
        self._cursor.catch_up(
            lambda event: self._apply_event(event, enforce=True, now=now)
        )
        self._submit_pending(now)
        store.commit_cursor(self._cursor.log_index)
        store.commit()
        self._check_recovered(now)

    def _housekeeping(self) -> None:
        current = self.epoch_tracker.current_epoch
        for validator in self._validators.values():
            validator.housekeeping()
        self.store.prune_signals(current, self.config.thr)

    def _apply_event(self, event, enforce: bool, now: float) -> None:
        self.group.apply_event(event)
        if enforce and event.name == "MemberRemoved":
            self._resolve_evidence(event.args["pk"], now)

    def _resolve_evidence(self, pk: int, now: float) -> None:
        """A member is gone from the group — settle our evidence, if
        any. Idempotent: terminal rows are left untouched, so replays
        never double-pay or double-count."""
        store = self.store
        status = store.evidence_status(pk)
        if status is None or status in ("confirmed", "lost", "preempted"):
            return
        if status == "pending":
            # Someone else slashed the offender before we submitted.
            store.resolve_evidence(pk, "preempted", now)
            return
        # status == "submitted": our transaction raced for this slash.
        receipt = self.chain.receipts.get(store.evidence_tx(pk))
        if receipt is not None and receipt.success:
            store.resolve_evidence(pk, "confirmed", now)
            self._award(now)
        else:
            # Mined after a competitor's slash → reverted ("unknown
            # member"); the reward went to the winner.
            store.resolve_evidence(pk, "lost", now)

    def _submit_pending(self, now: float) -> None:
        for pk, secret in self.store.pending_evidence():
            if not self.group.contains(IdentityCommitment(Fr(pk))):
                # Already removed per our own replica — the removal
                # event will be (or was) consumed by the cursor loop;
                # submitting would only buy a guaranteed revert.
                self.store.resolve_evidence(pk, "preempted", now)
                continue
            tx = self.chain.transact(
                self.account,
                self.contract_address,
                "slash",
                secret,
                calldata_bytes=4 + 32,
                submitted_at=now,
            )
            self.store.mark_submitted(pk, tx.tx_hash)

    def _award(self, now: float) -> None:
        """Split one confirmed slash reward with the delegators."""
        contract = self.net.contract
        reward = contract.stake_wei - int(
            contract.stake_wei * contract.burn_fraction
        )
        store = self.store
        store.add_ledger("reward", self.contract_address, reward, now)
        delegations = store.delegations()
        if delegations:
            kept = int(reward * self.reward_cut)
            share = (reward - kept) // len(delegations)
            if share > 0:
                for node_id, account in delegations:
                    self.chain.transfer_value(
                        self.account, account, share
                    )
                    store.add_ledger("payout", node_id, share, now)

    def _check_recovered(self, now: float) -> None:
        if self._recovering is None:
            return
        unresolved = set(self.store.unresolved_evidence())
        if not (self._recovering & unresolved):
            self.recovery_time += now - self._restarted_at
            self._recovering = None

    # -- detection -----------------------------------------------------------------------

    def _validate(self, topic: str, message: WakuMessage):
        validator = self._validators[topic]
        report = validator.validate_bytes(message.rate_limit_proof)
        if (
            report.outcome is ValidationOutcome.RELAY
            and report.signal is not None
        ):
            # Write-ahead: the first signal per (epoch, phi) is durable
            # before the service could ever need it for detection.
            self.store.record_signal(
                topic,
                report.signal.epoch,
                str(int(report.signal.internal_nullifier)),
                message.rate_limit_proof,
            )
        return OUTCOME_TO_GOSSIP[report.outcome]

    def _on_evidence(self, topic: str, evidence: SlashingEvidence) -> None:
        pk = int(evidence.commitment.element)
        if not self.group.contains(evidence.commitment):
            return  # already slashed in our replica
        self.store.put_evidence(
            pk,
            int(evidence.recovered_secret.element),
            evidence.epoch,
            topic,
            self.net.simulator.now,
        )

    # -- delegation ------------------------------------------------------------------------

    def delegate(self, peer) -> None:
        """Enroll ``peer`` as a delegating light client: it pays the
        one-off fee, stops claiming slashes itself, and earns a share
        of every reward this service wins."""
        self.delegate_id(peer.node_id, peer.account)
        peer.disable_slash_reporting()

    def delegate_id(self, node_id: str, account: str) -> None:
        """The chain/store half of a delegation — everything except
        flipping the delegator's own reporting switch. Build-per-worker
        runners call this for delegators that live on other workers
        (the fee transfer and ledger must land on every replica; the
        switch flip is the owner's job)."""
        now = self.net.simulator.now
        self.chain.transfer_value(
            account, self.account, self.delegation_fee_wei
        )
        self.store.add_delegation(
            node_id, account, self.delegation_fee_wei, now
        )
        self.store.add_ledger(
            "fee", node_id, self.delegation_fee_wei, now
        )

    # -- reporting -------------------------------------------------------------------------

    @property
    def balance(self) -> int:
        return self.chain.get_account(self.account).balance

    def summary(self) -> Dict[str, object]:
        """Deterministic per-service figures for the scenario result.

        Wei amounts stay exact integers — the crash-equivalence
        acceptance criterion compares economics bit-for-bit, and a
        float would silently round 10**18-scale stakes.
        """
        counts = self.store.evidence_counts()
        submitted = sum(
            counts.get(s, 0) for s in ("submitted", "confirmed", "lost")
        )
        rewards = self.store.ledger_total("reward")
        paid_out = self.store.ledger_total("payout")
        return {
            "detected": sum(counts.values()),
            "submitted": submitted,
            "slashes_won": counts.get("confirmed", 0),
            "lost_races": counts.get("lost", 0),
            "preempted": counts.get("preempted", 0),
            "pending": (
                counts.get("pending", 0) + counts.get("submitted", 0)
            ),
            "rewards_wei": rewards,
            "paid_out_wei": paid_out,
            "kept_wei": rewards - paid_out,
            "fees_wei": self.store.ledger_total("fee"),
            "delegators": self.store.delegation_count(),
            "crashes": self.crashes,
            "replayed_events": self.replayed_events,
            "recovery_time": round(self.recovery_time, 6),
        }
