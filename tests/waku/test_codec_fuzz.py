"""Fuzz suite for the WakuMessage codec and the envelope memo.

Every input gets a well-typed answer — a ``WakuMessage``, a
``SerializationError`` or a memoised ``None`` — never a stray
exception, and sharing one decoded envelope per process never changes
what any single peer would have decoded for itself. (The relay-level
half — one parse, REJECT on every receiver — is in ``test_waku.py``.)
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.waku.message import (
    ENVELOPE_MEMO_SIZE,
    WakuMessage,
    decode_envelope,
)
from repro.waku.relay import WakuRelayNode

messages = st.builds(
    WakuMessage,
    payload=st.binary(max_size=64),
    content_topic=st.text(max_size=24),
    version=st.integers(0, 255),
    rate_limit_proof=st.none() | st.binary(max_size=64),
)


def envelope_like(data):
    """Bias random bytes towards almost-valid encodings: a real
    envelope with a few bytes cut, appended or overwritten."""
    encoded = data.draw(messages).to_bytes()
    cut = data.draw(st.integers(0, len(encoded)))
    mutated = bytearray(encoded[:cut] + data.draw(st.binary(max_size=8)))
    if mutated:
        index = data.draw(st.integers(0, len(mutated) - 1))
        mutated[index] = data.draw(st.integers(0, 255))
    return bytes(mutated)


def check_decode(raw):
    try:
        message = WakuMessage.from_bytes(raw)
    except SerializationError:
        assert decode_envelope(raw) is None
    else:
        assert isinstance(message, WakuMessage)
        assert message.to_bytes() == raw  # the encoding is canonical
        assert decode_envelope(raw) == message


class TestCodecFuzz:
    @given(st.binary(max_size=96))
    def test_arbitrary_bytes_get_a_typed_answer(self, raw):
        check_decode(raw)

    @given(st.data())
    def test_mutated_envelopes_get_a_typed_answer(self, data):
        check_decode(envelope_like(data))

    @given(messages)
    def test_every_constructible_message_round_trips(self, message):
        assert WakuMessage.from_bytes(message.to_bytes()) == message

    @given(messages)
    def test_proper_prefixes_are_truncated_not_trailing(self, message):
        encoded = message.to_bytes()
        for cut in range(len(encoded)):
            with pytest.raises(SerializationError, match="truncated"):
                WakuMessage.from_bytes(encoded[:cut])
        with pytest.raises(SerializationError, match="trailing"):
            WakuMessage.from_bytes(encoded + b"\x00")


class TestEnvelopeMemo:
    @given(messages)
    def test_equal_payloads_share_one_object(self, message):
        raw = message.to_bytes()
        copy = bytes(bytearray(raw))  # equal by value, another object
        assert copy is not raw
        assert decode_envelope(copy) is decode_envelope(raw)

    @given(st.data())
    def test_relay_rejects_non_bytes_as_before(self, data):
        raw = envelope_like(data)
        decode = WakuRelayNode._decode
        assert decode(raw) is decode_envelope(raw)
        for alien in (bytearray(raw), raw.decode("latin-1"), None, 7):
            assert decode(alien) is None
        message = decode_envelope(raw)
        if message is not None:
            assert decode(message) is message  # pre-decoded passes through

    def test_eviction_never_changes_an_answer(self):
        decode_envelope.cache_clear()
        overflow = 50
        raws = [
            WakuMessage(payload=b"message %d" % i).to_bytes()
            for i in range(ENVELOPE_MEMO_SIZE + overflow)
        ]
        raws[1] = raws[1][:-1]  # one malformed entry, bounded like the rest
        first = [decode_envelope(raw) for raw in raws]
        info = decode_envelope.cache_info()
        assert info.currsize == info.maxsize == ENVELOPE_MEMO_SIZE
        assert info.misses == len(raws)
        # The oldest entries are gone: asking again re-decodes them to
        # an equal (no longer identical) envelope, None stays None.
        again = [decode_envelope(raw) for raw in raws[:overflow]]
        assert again == first[:overflow]
        assert again[1] is None
        assert again[0] is not first[0]
        assert decode_envelope.cache_info().misses == len(raws) + overflow
        # A recent entry is still the shared object.
        assert decode_envelope(raws[-1]) is first[-1]
