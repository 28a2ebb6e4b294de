"""Waku-Relay: anonymous pub/sub over GossipSub.

A thin protocol layer that (1) speaks :class:`WakuMessage` envelopes
over gossipsub pubsub topics, (2) never attaches any sender
identification, and (3) exposes the validator hook that
Waku-RLN-Relay's routing checks plug into (paper Figure 1: the RLN
layer sits between the application and W AKU-RELAY's GossipSub
routing).

A node may join several pubsub topics; the paper's Section III maps one
RLN group onto each topic ("Peers that belong to the same GossipSub
layer i.e., subscribed to the same topic form an RLN group"), so
validators and message handlers can be scoped per topic.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..gossipsub.params import GossipSubParams
from ..gossipsub.router import GossipSubRouter, ValidationResult
from ..gossipsub.score import PeerScoreParams
from ..net.network import Network, NodeId
from .message import DEFAULT_PUBSUB_TOPIC, WakuMessage, decode_envelope

#: Application handler: (message, msg_id) — note: no sender argument;
#: receivers genuinely cannot know the origin.
MessageHandler = Callable[[WakuMessage, str], None]

#: Topic-aware handler: (pubsub topic, message, msg_id) — still no
#: sender; the topic is routing metadata, not an identity.
TopicMessageHandler = Callable[[str, WakuMessage, str], None]

#: Waku validator: (pubsub topic, message) -> ValidationResult.
WakuValidator = Callable[[str, WakuMessage], ValidationResult]


class WakuRelayNode:
    """One Waku-Relay peer, member of one or more pubsub topics."""

    def __init__(
        self,
        node_id: NodeId,
        network: Network,
        pubsub_topic: str = DEFAULT_PUBSUB_TOPIC,
        gossip_params: Optional[GossipSubParams] = None,
        score_params: Optional[PeerScoreParams] = None,
        processing_delay: float = 0.0,
    ) -> None:
        self.node_id = node_id
        self.pubsub_topic = pubsub_topic
        self.router = GossipSubRouter(
            node_id,
            network,
            gossip_params,
            score_params,
            processing_delay=processing_delay,
        )
        #: Joined topics in join order: a handful, so a tuple (no set).
        self._topics: Tuple[str, ...] = ()
        #: (topic or None, handler) — None scopes to every joined topic.
        self._handlers: List[Tuple[Optional[str], MessageHandler]] = []
        self._topic_handlers: List[TopicMessageHandler] = []
        self._validators: List[Tuple[Optional[str], WakuValidator]] = []
        self._started = False
        self.router.on_delivery(self._on_delivery)
        self.join_topic(pubsub_topic)

    # -- topic membership --------------------------------------------------------

    def join_topic(self, topic: str) -> None:
        """Join a pubsub topic for good (subscribes immediately if
        started); a node never leaves a topic it joined."""
        if topic in self._topics:
            return
        self._topics += (topic,)
        self.router.add_validator(topic, self._validate)
        if self._started:
            self.router.subscribe(topic)
            for peer in self.router.peers():
                self.router.announce_to(peer)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Subscribe to all joined topics, announce, begin heartbeats."""
        self._started = True
        for topic in sorted(self._topics):
            self.router.subscribe(topic)
        for peer in self.router.peers():
            self.router.announce_to(peer)
        self.router.start()

    def stop(self) -> None:
        self._started = False
        self.router.stop()

    # -- app API -----------------------------------------------------------------

    def on_message(
        self, handler: MessageHandler, topic: Optional[str] = None
    ) -> None:
        """Register a delivery handler, optionally scoped to one topic."""
        self._handlers.append((topic, handler))

    def on_topic_message(self, handler: TopicMessageHandler) -> None:
        """Register a handler that also receives the pubsub topic."""
        self._topic_handlers.append(handler)

    def add_validator(
        self, validator: WakuValidator, topic: Optional[str] = None
    ) -> None:
        """Install a routing validator (e.g. the RLN checks).

        With ``topic=None`` the validator applies to every joined topic;
        per-topic validators implement the paper's one-RLN-group-per-
        topic structure.
        """
        self._validators.append((topic, validator))

    def publish(
        self, message: WakuMessage, topic: Optional[str] = None
    ) -> str:
        """Publish an envelope on a joined topic; returns the message ID.
        The router raises :class:`GossipError` on a topic it does not
        subscribe to."""
        return self.router.publish(
            topic or self.pubsub_topic, message.to_bytes()
        )

    # -- plumbing ------------------------------------------------------------------

    @staticmethod
    def _decode(payload: Any) -> Optional[WakuMessage]:
        # Called for validation and again for delivery, on every peer the
        # payload reaches: all of them share the process-wide memo.
        if isinstance(payload, bytes):
            return decode_envelope(payload)
        return payload if isinstance(payload, WakuMessage) else None

    def _validate(
        self, topic: str, payload: Any, from_peer: NodeId
    ) -> ValidationResult:
        del from_peer  # validators must not see the previous hop
        message = self._decode(payload)
        if message is None:
            return ValidationResult.REJECT
        for scope, validator in self._validators:
            if scope is not None and scope != topic:
                continue
            result = validator(topic, message)
            if result is not ValidationResult.ACCEPT:
                return result
        return ValidationResult.ACCEPT

    def _on_delivery(
        self, topic: str, payload: Any, msg_id: str, from_peer: NodeId
    ) -> None:
        del from_peer  # handlers must not see the previous hop
        message = self._decode(payload)
        if message is None:
            return
        for scope, handler in self._handlers:
            if scope is None or scope == topic:
                handler(message, msg_id)
        for topic_handler in self._topic_handlers:
            topic_handler(topic, message, msg_id)
