"""``MessageCache`` against the per-heartbeat window deque it replaced.

The shipped cache keeps only windows that received a message; the
oracle (``cache_oracle.py``) keeps one window per heartbeat, empty or
not. IHAVE emission reads ``gossip_ids`` and IWANT serving reads
``get``, so both must answer alike after every step of any sequence of
puts and shifts, at every window geometry the parameters allow.
"""

from __future__ import annotations

from cache_oracle import DequeMessageCache
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossipsub.mcache import MessageCache
from repro.gossipsub.rpc import GossipMessage

#: ``None`` is a heartbeat shift; ``(i, topic)`` puts message ``i``
#: (re-puts of a cached ID are no-ops, of an expired one fresh puts).
STEPS = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 11), st.integers(0, 2)),
)


@st.composite
def geometries(draw):
    history = draw(st.integers(1, 6))
    return history, draw(st.integers(1, history)), draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(geometry=geometries(), steps=st.lists(STEPS, max_size=60))
def test_same_answers_as_the_deque_oracle(geometry, steps):
    history, gossip, topic_count = geometry
    topics = [f"t{k}" for k in range(topic_count)]
    cache = MessageCache(history, gossip)
    oracle = DequeMessageCache(history, gossip)
    for step in steps:
        if step is None:
            cache.shift()
            oracle.shift()
        else:
            i, k = step
            topic = topics[k % topic_count]
            message = GossipMessage(msg_id=f"m{i}", topic=topic, payload=b"")
            cache.put(message)
            oracle.put(message)
        assert len(cache) == len(oracle)
        for topic in topics:
            assert cache.gossip_ids(topic) == oracle.gossip_ids(topic)
        for i in range(12):
            assert cache.get(f"m{i}") is oracle.get(f"m{i}")
