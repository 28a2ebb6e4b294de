"""Unit tests for the message cache, seen cache and RPC envelope."""

import pytest

from repro.gossipsub.mcache import MessageCache, SeenCache
from repro.gossipsub.rpc import (
    GossipMessage,
    RpcPacket,
    compute_message_id,
    payload_to_bytes,
)


def msg(i, topic="t"):
    payload = f"m{i}".encode()
    return GossipMessage(
        msg_id=compute_message_id(topic, payload), topic=topic, payload=payload
    )


class TestMessageCache:
    def test_put_get(self):
        cache = MessageCache()
        message = msg(1)
        cache.put(message)
        assert cache.get(message.msg_id) is message
        assert cache.get("missing") is None

    def test_duplicate_put_ignored(self):
        cache = MessageCache()
        message = msg(1)
        cache.put(message)
        cache.put(message)
        assert len(cache) == 1

    def test_gossip_window_subset(self):
        cache = MessageCache(history_length=5, gossip_length=2)
        m1 = msg(1)
        cache.put(m1)
        cache.shift()
        cache.shift()  # m1 now outside the gossip window but in history
        m2 = msg(2)
        cache.put(m2)
        ids = cache.gossip_ids("t")
        assert m2.msg_id in ids
        assert m1.msg_id not in ids
        assert cache.get(m1.msg_id) is not None  # still serveable via IWANT

    def test_expiry_after_history(self):
        cache = MessageCache(history_length=3, gossip_length=2)
        m1 = msg(1)
        cache.put(m1)
        for _ in range(3):
            cache.shift()
        assert cache.get(m1.msg_id) is None
        assert len(cache) == 0

    def test_gossip_ids_filtered_by_topic(self):
        cache = MessageCache()
        cache.put(msg(1, topic="a"))
        cache.put(msg(2, topic="b"))
        assert len(cache.gossip_ids("a")) == 1

    def test_idle_router_holds_no_windows(self):
        cache = MessageCache()
        for _ in range(100):
            cache.shift()
        assert cache._windows == [] and cache.gossip_ids("t") == []


class TestSeenCache:
    def test_first_sighting_false(self):
        seen = SeenCache(ttl=10.0)
        assert not seen.witness("x", now=0.0)
        assert seen.witness("x", now=1.0)

    def test_contains(self):
        seen = SeenCache(ttl=10.0)
        seen.witness("x", now=0.0)
        assert "x" in seen
        assert "y" not in seen

    def test_sweep_clears_expired(self):
        seen = SeenCache(ttl=1.0)
        for i in range(5000):
            seen.witness(f"m{i}", now=0.0)
        seen.witness("late", now=100.0)  # triggers a sweep
        assert len(seen) < 5001


class TestRpcPacket:
    def test_size_accounts_for_contents(self):
        small = RpcPacket(iwant=["a" * 16])
        big = RpcPacket(publish=[msg(1)], ihave={"t": ["x" * 16] * 10})
        assert big.size_bytes > small.size_bytes > 0


class TestMessageId:
    def test_content_addressed(self):
        assert compute_message_id("t", b"x") == compute_message_id("t", b"x")

    def test_payload_object_with_to_bytes(self):
        class Payload:
            def to_bytes(self):
                return b"obj"

        assert payload_to_bytes(Payload()) == b"obj"
        assert compute_message_id("t", Payload()) == compute_message_id(
            "t", b"obj"
        )

    def test_unserializable_payload_rejected(self):
        with pytest.raises(TypeError):
            payload_to_bytes(123)
