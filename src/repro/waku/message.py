"""The anonymized Waku message.

Waku-Relay achieves sender anonymity by *omission* (paper Section I):
protocol messages carry no IP address, no signature, no sender key — a
message is just a content topic, an opaque payload and a protocol
version. The optional RLN fields of Waku-RLN-Relay travel in
``rate_limit_proof`` (the serialized :class:`~repro.rln.signal.RlnSignal`),
which is itself zero-knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..errors import SerializationError

#: Default Waku v2 pubsub topic.
DEFAULT_PUBSUB_TOPIC = "/waku/2/default-waku/proto"

#: Distinct wire payloads whose decoded envelope the process keeps (see
#: :func:`decode_envelope`). A miss only re-decodes, so the bound can
#: never change a result; it has to cover the messages in flight at one
#: time (publish rate x propagation + IHAVE window), not the peers.
ENVELOPE_MEMO_SIZE = 4096


def _uint(field: str, value: int, width: int) -> bytes:
    try:
        return value.to_bytes(width, "big")
    except OverflowError:
        raise SerializationError(
            f"WakuMessage {field} {value} does not fit {width} byte(s)"
        ) from None


@dataclass(frozen=True)
class WakuMessage:
    """A Waku v2 message envelope (PII-free by construction)."""

    payload: bytes
    content_topic: str = "/repro/1/chat/proto"
    version: int = 1
    #: Serialized RLN signal; present only under Waku-RLN-Relay. The
    #: wire format cannot tell an empty proof from none, so ``b""`` is
    #: canonicalised to ``None`` and every message round-trips.
    rate_limit_proof: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.rate_limit_proof == b"":
            object.__setattr__(self, "rate_limit_proof", None)

    def to_bytes(self) -> bytes:
        """Length-prefixed wire encoding."""
        topic_bytes = self.content_topic.encode()
        proof = self.rate_limit_proof or b""
        return (
            _uint("version", self.version, 1)
            + _uint("content_topic length", len(topic_bytes), 2)
            + topic_bytes
            + _uint("payload length", len(self.payload), 4)
            + self.payload
            + _uint("rate_limit_proof length", len(proof), 4)
            + proof
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "WakuMessage":
        fields = []
        offset = 1
        for name, width in ("content_topic", 2), ("payload", 4), ("proof", 4):
            body = offset + width
            end = body + int.from_bytes(data[offset:body], "big")
            if end > len(data):
                raise SerializationError(
                    f"truncated WakuMessage: {name} ends at byte {end} "
                    f"of {len(data)}"
                )
            fields.append(data[body:end])
            offset = end
        if offset != len(data):
            raise SerializationError("trailing bytes in WakuMessage")
        topic_bytes, payload, proof = fields
        try:
            content_topic = topic_bytes.decode()
        except UnicodeDecodeError as exc:
            raise SerializationError(f"malformed WakuMessage: {exc}") from exc
        return cls(
            payload=payload,
            content_topic=content_topic,
            version=data[0],
            rate_limit_proof=proof,
        )

    @property
    def size_bytes(self) -> int:
        return len(self.to_bytes())


@lru_cache(maxsize=ENVELOPE_MEMO_SIZE)
def decode_envelope(data: bytes) -> Optional[WakuMessage]:
    """The envelope ``data`` encodes, or ``None`` if it is malformed.

    One process-wide memo: the simulator hands every peer the same
    immutable payload, so each distinct message is parsed once and all
    receivers share one frozen :class:`WakuMessage`. Decoding is a pure
    function of the bytes, so sharing cannot change what any peer
    sees; known-malformed bytes memoise as ``None`` and count against
    the bound like any other entry.
    """
    try:
        return WakuMessage.from_bytes(data)
    except SerializationError:
        return None
