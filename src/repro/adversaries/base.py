"""Stateful, budget-constrained attacker agents.

The paper's spam-protection argument is *economic*: every identity an
attacker spams from costs one stake, every detected double-signal burns
part of it, and a rational attacker must keep buying fresh identities
to keep spamming. :class:`AdversaryAgent` models exactly that actor — a
wallet with a finite budget, a current RLN identity, and a pluggable
:class:`AdversaryStrategy` deciding how hard to push each epoch — and
reacts to on-chain slashing events the way the event-driven service
agents in raiden-services react to channel events: observe, adapt,
re-register while funds remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..constants import SPAM_MARKER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.peer import WakuRlnRelayPeer


class AdversaryStrategy:
    """Decides, per epoch, how a single agent misbehaves.

    Subclasses override :meth:`messages_for_epoch` (how many distinct
    messages to emit in the current epoch — anything above one is a
    rate violation) and optionally :meth:`on_slashed` (adapt to the
    observed slash latency) and :meth:`finished` (stop attacking).
    One strategy instance belongs to one agent, so subclasses may keep
    per-agent state on ``self``.
    """

    #: Registry name; set by subclasses.
    name: str = "base"
    #: Buy a fresh identity after losing the current one to slashing?
    rotate_on_slash: bool = True

    def messages_for_epoch(
        self, agent: "AdversaryAgent", epoch_index: int
    ) -> int:
        raise NotImplementedError

    def on_slashed(
        self, agent: "AdversaryAgent", latency: float
    ) -> None:
        """Observe how long the network took to slash the identity
        (seconds from the identity's first rate violation)."""

    def finished(self, agent: "AdversaryAgent", epoch_index: int) -> bool:
        """True once the strategy has nothing left to do."""
        return False


@dataclass
class IdentityRecord:
    """One purchased identity's life, for the attack post-mortem."""

    commitment: int
    registered_at: float
    first_violation_at: Optional[float] = None
    slashed_at: Optional[float] = None

    @property
    def slash_latency(self) -> Optional[float]:
        """Seconds from first rate violation to on-chain removal."""
        if self.slashed_at is None or self.first_violation_at is None:
            return None
        return self.slashed_at - self.first_violation_at


class AdversaryAgent:
    """One attacker: a funded wallet driving one relay peer.

    The agent's chain account is (re)funded to exactly ``budget_wei``;
    every registration locks ``stake_wei`` of it, so affordability is
    enforced by the contract itself — a rotation the agent cannot pay
    for reverts and retires the agent.
    """

    def __init__(
        self,
        peer: "WakuRlnRelayPeer",
        strategy: AdversaryStrategy,
        budget_wei: int,
        target_topics: Tuple[str, ...] = (),
    ) -> None:
        self.peer = peer
        self.strategy = strategy
        self.budget_wei = budget_wei
        self.node_id = peer.node_id
        #: Pubsub topics this agent spams, round-robin per message;
        #: empty = the peer's primary topic.
        self.target_topics: Tuple[str, ...] = tuple(target_topics)
        self.spam_sent = 0
        #: Identities bought so far (the bootstrap registration is #1).
        self.registrations = 1
        self.slashes = 0
        #: Set when the budget can no longer buy an identity.
        self.retired = False
        #: A rotation registration is in flight (tx queued / not synced).
        self.awaiting_registration = False
        self.identities: List[IdentityRecord] = [
            IdentityRecord(
                commitment=int(peer.commitment.element),
                registered_at=0.0,
            )
        ]

    # -- wallet -----------------------------------------------------------------

    @property
    def stake_wei(self) -> int:
        return self.peer.config.stake_wei

    @property
    def balance_wei(self) -> int:
        return self.peer.balance

    @property
    def rotations(self) -> int:
        return self.registrations - 1

    @property
    def spend_wei(self) -> int:
        """Cumulative registration spend (stake locked or already lost)."""
        return self.registrations * self.stake_wei

    @property
    def stake_lost_wei(self) -> int:
        return self.slashes * self.stake_wei

    def can_afford_identity(self) -> bool:
        return self.balance_wei >= self.stake_wei

    def fund(self) -> None:
        """Reset the wallet to the attack budget, net of the stake the
        bootstrap registration already locked."""
        account = self.peer.chain.get_account(self.peer.account)
        account.balance = max(0, self.budget_wei - self.stake_wei)

    # -- identity lifecycle ------------------------------------------------------

    @property
    def current_identity(self) -> IdentityRecord:
        return self.identities[-1]

    def note_violation(self, now: float) -> None:
        if self.current_identity.first_violation_at is None:
            self.current_identity.first_violation_at = now

    def on_slashed(self, commitment: int, now: float) -> None:
        """Chain observation: one of this agent's identities was removed."""
        self.slashes += 1
        for record in self.identities:
            if record.commitment == commitment and record.slashed_at is None:
                record.slashed_at = now
                latency = record.slash_latency
                self.strategy.on_slashed(
                    self, latency if latency is not None else 0.0
                )
                break

    def rotate(self, now: float) -> int:
        """Buy a fresh identity; returns its commitment.

        The caller must have checked :meth:`can_afford_identity`; the
        registration settles with the next mined block and the agent
        stays silent (``awaiting_registration``) until its own replica
        picks the event up.
        """
        commitment = self.peer.rotate_identity()
        self.registrations += 1
        self.awaiting_registration = True
        self.identities.append(
            IdentityRecord(
                commitment=int(commitment.element), registered_at=now
            )
        )
        return int(commitment.element)

    # -- acting ---------------------------------------------------------------------

    def emit_spam(self, count: int, now: float) -> int:
        """Publish ``count`` distinct messages right now; returns #sent.

        With ``target_topics`` set, messages round-robin across the
        targets (rate limits are per topic, so concentrating a burst on
        one topic is what produces double-signals there). Stops early
        once the agent's own replica shows the membership gone — its
        proofs no longer verify against any fresh root, so continuing
        is pointless for the attacker.
        """
        from ..errors import RegistrationError

        emitted = 0
        for _ in range(count):
            if not self.peer.is_registered:
                break
            payload = (
                SPAM_MARKER
                + f"|{self.node_id}|{self.registrations}|{self.spam_sent}".encode()
            )
            topic = None
            if self.target_topics:
                topic = self.target_topics[
                    self.spam_sent % len(self.target_topics)
                ]
            try:
                self.peer.publish(
                    payload, bypass_rate_limit=True, pubsub_topic=topic
                )
            except RegistrationError:
                break
            self.spam_sent += 1
            emitted += 1
        if emitted > 1:
            self.note_violation(now)
        return emitted
