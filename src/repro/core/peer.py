"""The integrated Waku-RLN-Relay peer.

One :class:`WakuRlnRelayPeer` owns every per-peer moving part of
Figure 1:

* an Ethereum account and the registration transaction (staking);
* a local replica of the membership tree, synced from contract events
  ("Group Synchronization");
* an RLN prover for publishing (one message per epoch, locally
  enforced on the honest path);
* the Section III routing pipeline — proof verification, epoch window,
  nullifier map — wired into the Waku-Relay validator hook;
* slashing: on detecting a double-signal it reconstructs the spammer's
  secret and submits it to the membership contract for the reward.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..crypto.field import Fr
from ..crypto.keys import IdentityCommitment, MembershipKeyPair
from ..crypto.zksnark.groth16 import ProvingKey, VerifyingKey
from ..errors import RateLimitError, RegistrationError
from ..eth.chain import Blockchain
from ..eth.cursor import EventCursor
from ..net.network import Network, NodeId
from ..rln.membership import LocalGroup, MembershipStore
from ..rln.prover import RlnProver
from ..rln.slashing import SlashingEvidence
from ..rln.verifier import RlnVerifier, VerificationCache
from ..waku.message import WakuMessage
from ..waku.relay import WakuRelayNode
from ..gossipsub.router import ValidationResult
from .config import ProtocolConfig
from .epoch import EpochTracker
from .nullifier_map import NullifierMap
from .validator import RlnMessageValidator, ValidationOutcome

#: Application handler: (pubsub topic, payload, message id).
TopicPayloadHandler = Callable[[str, bytes, str], None]

#: Mapping from validation outcomes to gossip-layer actions. Spam and
#: duplicates are IGNOREd rather than REJECTed: the forwarding hop is
#: usually an honest router that had not yet seen the first signal, so
#: punishing it (P4) would let a spammer poison honest peers' scores.
OUTCOME_TO_GOSSIP = {
    ValidationOutcome.RELAY: ValidationResult.ACCEPT,
    ValidationOutcome.IGNORE_DUPLICATE: ValidationResult.IGNORE,
    ValidationOutcome.DROP_SPAM: ValidationResult.IGNORE,
    ValidationOutcome.REJECT_INVALID_PROOF: ValidationResult.REJECT,
    ValidationOutcome.REJECT_BAD_EPOCH: ValidationResult.REJECT,
    ValidationOutcome.REJECT_MALFORMED: ValidationResult.REJECT,
}


class WakuRlnRelayPeer:
    """A full Waku-RLN-Relay participant."""

    def __init__(
        self,
        node_id: NodeId,
        network: Network,
        chain: Blockchain,
        contract_address: str,
        config: ProtocolConfig,
        proving_key: ProvingKey,
        verifying_key: VerifyingKey,
        rng=None,
        initial_balance_wei: Optional[int] = None,
        clock_skew: float = 0.0,
        verification_cache: Optional[VerificationCache] = None,
        membership_store: Optional[MembershipStore] = None,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.chain = chain
        self.contract_address = contract_address
        self.config = config

        self._rng = rng
        self.keypair = MembershipKeyPair.generate(rng)
        # One membership (stake + tree) serves every topic of this peer;
        # with a deployment store the replica is a copy-on-write view of
        # the one canonical tree, otherwise it is fully independent.
        self.group = (
            membership_store.local_group(config.domain or "")
            if membership_store is not None
            else LocalGroup(config.merkle_depth, config.root_window)
        )
        self.prover = RlnProver(
            keypair=self.keypair, proving_key=proving_key
        )
        self._verifying_key = verifying_key
        self._verification_cache = verification_cache
        self.epoch_tracker = EpochTracker(
            network.simulator, config.epoch_length, clock_skew
        )
        processing_delay = (
            config.performance_model.verify_seconds
            if config.model_crypto_latency
            else 0.0
        )
        self.relay = WakuRelayNode(
            node_id,
            network,
            gossip_params=config.gossip,
            processing_delay=processing_delay,
        )
        #: pubsub topic -> its RLN validator (own nullifier map, own
        #: domain-separated external nullifiers). One RLN group per
        #: topic, as in the paper's Section III; membership (the stake
        #: and the Merkle tree) is shared across all of them.
        self.rln_topics: Dict[str, RlnMessageValidator] = {}
        self._slash_reporting = True
        self._evidence_observers: List[
            Callable[[SlashingEvidence], None]
        ] = []
        # The primary topic is RLN-protected from birth; the same host
        # may join other (free or RLN) topics on the same relay node.
        self.validator = self._join_rln_topic(self.relay.pubsub_topic)
        self.relay.on_topic_message(self._handle_waku_message)

        balance = (
            initial_balance_wei
            if initial_balance_wei is not None
            else config.stake_wei * 2
        )
        self.account = chain.create_account(f"eoa:{node_id}", balance).address

        self.leaf_index: Optional[int] = None
        self.topic_payload_handlers: List[TopicPayloadHandler] = []
        self.slashes_submitted = 0
        self._slashes_reported: set = set()
        self._cursor = EventCursor(chain, contract_address)
        self._membership_events_applied = 0
        #: pubsub topic -> epoch of this peer's last honest publish
        #: (the self-enforced one-message-per-epoch-per-topic limit).
        self._last_published_epochs: Dict[str, int] = {}
        self._stop_tasks: List[Callable[[], None]] = []

    # -- topics ----------------------------------------------------------------

    def _topic_domain(self, pubsub_topic: str) -> Optional[str]:
        """RLN domain tag for ``pubsub_topic``.

        The primary topic keeps the deployment's configured domain
        (wire-compatible with single-topic deployments); every other
        RLN topic gets a domain derived from its name, so external
        nullifiers — and therefore rate limits and double-signal
        detection — are independent per topic.
        """
        if pubsub_topic == self.relay.pubsub_topic:
            return self.config.domain
        base = self.config.domain or ""
        return f"{base}|topic:{pubsub_topic}"

    def _join_rln_topic(self, pubsub_topic: str) -> RlnMessageValidator:
        verifier = RlnVerifier(
            verifying_key=self._verifying_key,
            root_predicate=self.group.is_acceptable_root,
            domain=self._topic_domain(pubsub_topic),
            cache=self._verification_cache,
            metrics=self.network.metrics,
        )
        validator = RlnMessageValidator(
            verifier=verifier,
            epoch_tracker=self.epoch_tracker,
            nullifier_map=NullifierMap(
                self.config.thr,
                auto_prune=self.config.eager_nullifier_gc,
            ),
            metrics=self.network.metrics,
        )
        if self._slash_reporting:
            validator.on_spam(self._submit_slash)
        for observer in self._evidence_observers:
            validator.on_spam(observer)
        self.rln_topics[pubsub_topic] = validator
        self.relay.join_topic(pubsub_topic)
        self.relay.add_validator(
            lambda message, topic=pubsub_topic: self._validate_waku_message(
                message, topic
            ),
            topic=pubsub_topic,
        )
        return validator

    def join_rln_topic(self, pubsub_topic: str) -> None:
        """Join ``pubsub_topic`` as a member of its RLN group.

        The topic gets its own rate limit (one message per epoch per
        topic), its own nullifier map and domain-separated external
        nullifiers; slashing evidence from any topic settles against
        the one shared membership stake. Idempotent.
        """
        if pubsub_topic in self.rln_topics:
            return
        self._join_rln_topic(pubsub_topic)

    def join_open_topic(self, pubsub_topic: str) -> None:
        """Join a topic with no RLN protection (free traffic)."""
        self.relay.join_topic(pubsub_topic)

    # -- registration & sync --------------------------------------------------

    @property
    def commitment(self) -> IdentityCommitment:
        return self.keypair.commitment

    @property
    def is_registered(self) -> bool:
        return self.leaf_index is not None

    def register(self) -> None:
        """Queue the staking/registration transaction (mined with the
        next block; the peer learns its index from the emitted event)."""
        self.chain.transact(
            self.account,
            self.contract_address,
            "register",
            int(self.commitment.element),
            value=self.config.stake_wei,
            calldata_bytes=4 + 32,
            submitted_at=self.network.simulator.now,
        )

    @property
    def _synced_log_index(self) -> int:
        """Event-log position of this peer's group sync (next unread)."""
        return self._cursor.log_index

    @_synced_log_index.setter
    def _synced_log_index(self, value: int) -> None:
        self._cursor.seek(value)

    def sync(self) -> int:
        """Apply new contract events to the local tree; returns #applied."""
        applied = 0
        for event in self._cursor.poll():
            if event.name == "MemberRegistered":
                commitment = IdentityCommitment(Fr(event.args["pk"]))
                index = self.group.apply_registration(
                    commitment, self._membership_events_applied
                )
                if commitment == self.commitment:
                    self.leaf_index = index
                self._membership_events_applied += 1
                applied += 1
            elif event.name == "MembersRegistered":
                # Genesis batch: one event, applied through the tree's
                # bulk-build path (dormant identities, so no own-slot
                # check is needed — this peer registers transactionally).
                self.group.apply_registration_batch(
                    event.args["pks"], self._membership_events_applied
                )
                self._membership_events_applied += 1
                applied += 1
            elif event.name == "MemberRemoved":
                index = event.args["index"]
                self.group.apply_removal(
                    index, self._membership_events_applied
                )
                if index == self.leaf_index:
                    self.leaf_index = None  # we were slashed
                self._membership_events_applied += 1
                applied += 1
        return applied

    def adopt_sync_state(
        self,
        reference: "WakuRlnRelayPeer",
        leaf_index: Optional[int] = None,
    ) -> int:
        """Copy an up-to-date peer's synced membership view (bootstrap
        fast path used by ``register_all``).

        Equivalent to calling :meth:`sync` over the same event log —
        group sync is deterministic — but replicating the reference's
        tree costs no hashing. ``leaf_index`` is this peer's own slot
        if the caller already knows it (``register_all`` builds one
        index for all peers; the fallback scan here is O(members)).
        Returns the number of events adopted.
        """
        adopted = (
            reference._membership_events_applied
            - self._membership_events_applied
        )
        self.group.replicate_from(reference.group)
        self._synced_log_index = reference._synced_log_index
        self._membership_events_applied = (
            reference._membership_events_applied
        )
        if leaf_index is None:
            leaf_index = self.group.tree.find_leaf(self.commitment.element)
        # Adopt the index *unconditionally*: in the adopted state this
        # commitment either sits at ``leaf_index`` or is absent (not yet
        # registered, or slashed — in which case a previously held index
        # is stale and keeping it would let the peer keep proving
        # against a zeroed leaf).
        self.leaf_index = leaf_index
        return adopted

    def rotate_identity(self) -> IdentityCommitment:
        """Discard the current RLN identity and register a fresh one.

        The sybil move the economic analysis is about: a slashed member
        cannot rejoin with its old commitment (the contract zeroed that
        slot), but nothing stops the same host from generating a new
        keypair and staking again. The new registration settles with the
        next mined block; until this peer's sync applies its own
        ``MemberRegistered`` event, :attr:`is_registered` stays False
        and publishing raises. The old identity's nullifier history is
        irrelevant to the new one — internal nullifiers derive from the
        secret key, which changes here.
        """
        self.keypair = MembershipKeyPair.generate(self._rng)
        self.prover = RlnProver(
            keypair=self.keypair, proving_key=self.prover.proving_key
        )
        self.leaf_index = None
        self._last_published_epochs.clear()
        self.register()
        return self.commitment

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Join the relay mesh and begin periodic sync + housekeeping."""
        self.relay.start()
        sim = self.network.simulator
        self._stop_tasks.append(
            sim.schedule_periodic(
                self.config.sync_interval,
                lambda _sim: self.sync(),
                label=f"sync:{self.node_id}",
                jitter=0.2,
                stagger=True,
                rng=sim.entity_rng(self.node_id),
                shard=self.node_id,
            )
        )
        self._stop_tasks.append(
            sim.schedule_periodic(
                self.config.epoch_length,
                lambda _sim: self._housekeeping(),
                label=f"gc:{self.node_id}",
                jitter=0.2,
                stagger=True,
                rng=sim.entity_rng(self.node_id),
                shard=self.node_id,
            )
        )

    def _housekeeping(self) -> None:
        """Prune every RLN topic's nullifier map to its window."""
        for validator in self.rln_topics.values():
            validator.housekeeping()

    def stop(self) -> None:
        self.relay.stop()
        for cancel in self._stop_tasks:
            cancel()
        self._stop_tasks.clear()

    # -- publishing -----------------------------------------------------------------

    def publish(
        self,
        payload: bytes,
        content_topic: str = "/repro/1/chat/proto",
        bypass_rate_limit: bool = False,
        pubsub_topic: Optional[str] = None,
    ) -> str:
        """Publish one rate-limited message; returns the message ID.

        ``pubsub_topic`` selects which joined RLN topic carries the
        message (default: the primary topic); the proof's external
        nullifier is bound to that topic's domain, so each topic has an
        independent one-message-per-epoch budget. Honest peers enforce
        their own limit and get :class:`RateLimitError` when exceeding
        it; adversarial simulations pass ``bypass_rate_limit=True`` to
        emit the double-signals the network is supposed to catch.
        """
        if not self.is_registered:
            raise RegistrationError(
                f"{self.node_id} is not (yet) a registered group member"
            )
        topic = pubsub_topic or self.relay.pubsub_topic
        if topic not in self.rln_topics:
            raise RegistrationError(
                f"{self.node_id} has not joined RLN topic {topic!r}"
            )
        epoch = self.epoch_tracker.current_epoch
        if (
            not bypass_rate_limit
            and self._last_published_epochs.get(topic) == epoch
        ):
            raise RateLimitError(epoch)
        signal = self.prover.create_signal(
            message=payload,
            epoch=epoch,
            merkle_proof=self.group.merkle_proof(self.leaf_index),
            domain=self._topic_domain(topic),
        )
        self._last_published_epochs[topic] = epoch
        message = WakuMessage(
            payload=payload,
            content_topic=content_topic,
            rate_limit_proof=signal.to_bytes(),
        )
        if self.config.model_crypto_latency:
            # Proof generation occupies the device before the message
            # can leave (0.5 s at depth 32 on the reference phone).
            delay = self.config.performance_model.prove_seconds(
                self.config.merkle_depth
            )
            self.network.simulator.schedule(
                delay,
                lambda _sim: self.relay.publish(message, topic=topic),
                label=f"publish:{self.node_id}",
                shard=self.node_id,
            )
            from ..gossipsub.rpc import compute_message_id

            return compute_message_id(topic, message.to_bytes())
        return self.relay.publish(message, topic=topic)

    # -- receiving --------------------------------------------------------------------

    def on_topic_payload(self, handler: TopicPayloadHandler) -> None:
        """Call ``handler(topic, payload, msg_id)`` for every message
        delivered to this peer's application."""
        self.topic_payload_handlers.append(handler)

    def _handle_waku_message(
        self, topic: str, message: WakuMessage, msg_id: str
    ) -> None:
        for topic_handler in self.topic_payload_handlers:
            topic_handler(topic, message.payload, msg_id)

    def _validate_waku_message(
        self, message: WakuMessage, pubsub_topic: str
    ) -> ValidationResult:
        validator = self.rln_topics[pubsub_topic]
        report = validator.validate_bytes(message.rate_limit_proof)
        return OUTCOME_TO_GOSSIP[report.outcome]

    # -- slashing ---------------------------------------------------------------------

    def on_evidence(
        self, observer: Callable[[SlashingEvidence], None]
    ) -> None:
        """Observe every double-signal this peer's validators uncover.

        Purely observational — fires whether or not the peer itself
        reports slashes (scenario runners use it to count offenders the
        network *detected*, to compare against what actually settled
        on-chain). Applies to every joined RLN topic, current and
        future.
        """
        self._evidence_observers.append(observer)
        for validator in self.rln_topics.values():
            validator.on_spam(observer)

    def disable_slash_reporting(self) -> None:
        """Stop claiming slashing rewards for detected double-signals.

        Adversary agents run this: a colluding attack operation does
        not police itself, and letting attacker wallets collect the
        reporter bounty for slashing fellow agents would refill the
        very budgets the economics are supposed to drain. Validation
        itself is unaffected — the peer still drops spam. Applies to
        every joined RLN topic, current and future.
        """
        self._slash_reporting = False
        for validator in self.rln_topics.values():
            try:
                validator.spam_callbacks.remove(self._submit_slash)
            except ValueError:
                pass  # already disabled

    def _submit_slash(self, evidence: SlashingEvidence) -> None:
        """Claim the slashing reward for a detected double-signal.

        Skips the transaction when the member is already gone from the
        local tree or we have reported it before — the on-chain call
        would revert and only waste gas.
        """
        if evidence.commitment in self._slashes_reported:
            return
        if not self.group.contains(evidence.commitment):
            return
        self._slashes_reported.add(evidence.commitment)
        self.slashes_submitted += 1
        self.chain.transact(
            self.account,
            self.contract_address,
            "slash",
            int(evidence.recovered_secret.element),
            calldata_bytes=4 + 32,
            submitted_at=self.network.simulator.now,
        )

    @property
    def balance(self) -> int:
        return self.chain.get_account(self.account).balance
