"""IWANT selection against the code it replaced.

``GossipSubRouter._handle_ihave`` now deduplicates the wanted IDs in a
dict, probes the seen-cache only for an ID it has not taken yet, and
stops at ``max_iwant_per_heartbeat``. The previous selection — scan a
list for each ID, build the whole list, then cut it — is kept below as
the oracle: for any IHAVE, both must ask for the same IDs in the same
order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossipsub.params import GossipSubParams
from repro.gossipsub.router import GossipSubRouter
from repro.net.network import Network
from repro.sim.simulator import Simulator

TOPICS = ("a", "b", "c")
IDS = tuple(f"m{i}" for i in range(8))


def old_wanted(router, ihave):
    wanted = []
    for topic, ids in ihave.items():
        if topic not in router.subscriptions:
            continue
        for msg_id in ids:
            if msg_id not in router.seen and msg_id not in wanted:
                wanted.append(msg_id)
    return wanted[: router.params.max_iwant_per_heartbeat]


def iwant_sent(router, ihave):
    sent = []
    router._send = lambda peers, packet: sent.append((list(peers), packet))
    router._handle_ihave(ihave, "peer")
    assert all(peers == ["peer"] for peers, _ in sent)
    return [packet.iwant for _, packet in sent]


@settings(max_examples=300, deadline=None)
@given(
    subscribed=st.sets(st.sampled_from(TOPICS)),
    seen=st.sets(st.sampled_from(IDS)),
    ihave=st.dictionaries(
        st.sampled_from(TOPICS), st.lists(st.sampled_from(IDS), max_size=10)
    ),
    cap=st.integers(0, 9),
)
def test_iwant_equals_the_parent_selection(subscribed, seen, ihave, cap):
    params = GossipSubParams(max_iwant_per_heartbeat=cap)
    router = GossipSubRouter("me", Network(Simulator(seed=1)), params)
    router.subscriptions.update(subscribed)
    for msg_id in sorted(seen):
        router.seen.witness(msg_id, 0.0)
    expected = old_wanted(router, ihave)
    assert iwant_sent(router, ihave) == ([expected] if expected else [])
