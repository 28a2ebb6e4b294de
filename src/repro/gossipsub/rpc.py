"""GossipSub wire objects.

A single :class:`RpcPacket` envelope carries any combination of message
publications, control messages (IHAVE/IWANT/GRAFT/PRUNE) and
subscription changes, as in the libp2p protobuf schema. Packets contain
**no origin information** — only the previous hop is visible to a
receiver, which is the property Waku-Relay's anonymity builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, List, Mapping, Sequence, Tuple

from ..crypto.digests import blake2b


def payload_to_bytes(payload: Any) -> bytes:
    """Canonical byte view of a payload (bytes or ``to_bytes()`` objects)."""
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    # Guard against primitives: int.to_bytes() would silently "work".
    if not isinstance(payload, (int, float, str, bool)):
        to_bytes = getattr(payload, "to_bytes", None)
        if callable(to_bytes):
            return to_bytes()
    raise TypeError(
        f"payload of type {type(payload).__name__} is not byte-serializable"
    )


def compute_message_id(topic: str, payload: Any) -> str:
    """Content-addressed message ID: ``H(topic || payload)``.

    Deriving IDs from content only (never from a sender identity) keeps
    the routing layer anonymous and makes duplicate elimination
    origin-blind.
    """
    hasher = blake2b(digest_size=16)
    hasher.update(topic.encode())
    hasher.update(b"\x00")
    hasher.update(payload_to_bytes(payload))
    return hasher.hexdigest()


@dataclass(frozen=True)
class GossipMessage:
    """One published message in flight."""

    msg_id: str
    topic: str
    payload: Any

    # One message object is shared by every router that relays it, and
    # each hop's bandwidth accounting asks for the size — cache the
    # byte-serialisation once per message, not once per hop.
    @cached_property
    def size_bytes(self) -> int:
        return len(payload_to_bytes(self.payload))


class _EmptyMapping(dict):
    """The one empty mapping an unset ``ihave`` / ``px`` shares: read-only,
    hashable by identity (so a dataclass takes it as a plain default, with
    no factory call per packet) and pickled by name (so a packet crossing
    a worker pipe gets this same object back)."""

    __slots__ = ()
    __hash__ = object.__hash__

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("the shared empty mapping is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = _read_only
    popitem = setdefault = update = _read_only

    def __reduce__(self) -> str:
        return "EMPTY_MAPPING"


EMPTY_MAPPING: Mapping[str, Any] = _EmptyMapping()


@dataclass(slots=True)
class RpcPacket:
    """The union envelope exchanged between gossipsub routers. An unset
    field is a shared ``()`` or :data:`EMPTY_MAPPING`: the subscription
    burst at set-up queues thousands of packets at once."""

    publish: Sequence[GossipMessage] = ()
    #: topic -> advertised message IDs
    ihave: Mapping[str, List[str]] = EMPTY_MAPPING
    iwant: Sequence[str] = ()
    graft: Sequence[str] = ()
    #: topic -> backoff seconds the receiver must respect
    prune: Sequence[Tuple[str, float]] = ()
    #: Peer Exchange (v1.1): topic -> alternative peers offered with a
    #: PRUNE, so the pruned peer can heal its mesh elsewhere.
    px: Mapping[str, List[str]] = EMPTY_MAPPING
    subscribe: Sequence[str] = ()
    unsubscribe: Sequence[str] = ()

    @property
    def size_bytes(self) -> int:
        """Rough wire size for bandwidth accounting.

        Computed once per send on the hot path, so plain loops instead
        of ``sum(...)`` generator expressions — most fields are empty
        for a typical packet and skip in a single truth test.
        """
        size = 8  # envelope framing
        for message in self.publish:
            size += 16 + len(message.topic) + message.size_bytes
        if self.ihave:
            for topic, ids in self.ihave.items():
                size += len(topic) + 16 * len(ids)
        if self.iwant:
            size += 16 * len(self.iwant)
        for topic in self.graft:
            size += len(topic)
        for topic, _ in self.prune:
            size += len(topic) + 8
        if self.px:
            for topic, peers in self.px.items():
                size += len(topic)
                for peer in peers:
                    size += len(peer)
        for topic in self.subscribe:
            size += len(topic)
        for topic in self.unsubscribe:
            size += len(topic)
        return size
