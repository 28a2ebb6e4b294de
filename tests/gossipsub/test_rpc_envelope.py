"""Footprint and wire-behaviour guard for the gossip envelope.

The subscription exchange at set-up queues thousands of ``RpcPacket``s
at once (~7.5 k on the ``registry-genesis`` reference workload, for
15.4 k deliveries), and the arenas they fill set part of the run's
RSS high-water mark. A packet is therefore one slotted object whose
unset fields are shared read-only empties, so a publish-only packet is
the object plus its one list (whose items CPython allocates as a block
of their own): three blocks. This pins that, and that the
shared empties neither leak writes nor change what a packet means:
equality, ``size_bytes`` and the pickling the forked transport uses.
"""

from __future__ import annotations

import itertools
import pickle
import tracemalloc

import pytest

from repro.gossipsub.rpc import EMPTY_MAPPING, GossipMessage, RpcPacket

PACKETS = 1000
#: Blocks and bytes per ``RpcPacket(publish=[m])``: 3 and 159 B
#: measured (object, list, list items); 11 blocks and 617 B with a
#: ``__dict__`` and a fresh empty list or dict per unset field.
BUDGET_BLOCKS_PER_PACKET = 3
BUDGET_BYTES_PER_PACKET = 200

MESSAGE = GossipMessage("m" * 32, "/waku/2/default-waku/proto", b"payload")
#: One set value per field; every other field keeps its default.
SAMPLES = {
    "publish": [MESSAGE],
    "ihave": {"t": ["a" * 32, "b" * 32]},
    "iwant": ["a" * 32],
    "graft": ["t"],
    "prune": [("t", 60.0)],
    "px": {"t": ["peer-1", "peer-2"]},
    "subscribe": ["t", "u"],
}
MAPPINGS = ("ihave", "px")


def test_a_publish_packet_is_one_object_and_its_list():
    held = [None] * PACKETS  # sized first: its growth is not a packet's
    tracemalloc.start()
    for i in range(PACKETS):
        held[i] = RpcPacket(publish=[MESSAGE])
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    tracemalloc.stop()
    traces = snapshot.statistics("filename")
    blocks = sum(stat.count for stat in traces) / PACKETS
    size = sum(stat.size for stat in traces) / PACKETS
    assert blocks <= BUDGET_BLOCKS_PER_PACKET, blocks
    assert size <= BUDGET_BYTES_PER_PACKET, size


def test_unset_fields_are_the_shared_read_only_empties():
    blank, other = RpcPacket(), RpcPacket(graft=["t"])
    assert not hasattr(blank, "__dict__")
    for name in SAMPLES:
        value = getattr(blank, name)
        assert value is (EMPTY_MAPPING if name in MAPPINGS else ())
        if name != "graft":
            assert getattr(other, name) is value
    # The reads the router makes on an unset field still answer.
    assert blank.px.get("t", []) == [] and not blank.ihave
    writes = (
        lambda m: m.__setitem__("t", []),
        lambda m: m.__delitem__("t"),
        lambda m: m.update(t=[]),
        lambda m: m.setdefault("t", []),
        lambda m: m.pop("t", None),
        lambda m: m.popitem(),
        lambda m: m.clear(),
        lambda m: m.__ior__({"t": []}),
    )
    for write in writes:
        with pytest.raises(TypeError):
            write(blank.ihave)
    with pytest.raises(AttributeError):
        blank.publish.append(MESSAGE)
    assert EMPTY_MAPPING == {} and RpcPacket().ihave == {}


def test_pickle_round_trips_every_field_combination():
    combinations = [
        names
        for count in range(len(SAMPLES) + 1)
        for names in itertools.combinations(SAMPLES, count)
    ]
    # Every field of the envelope, each set or unset: 2 ** 7.
    assert set(SAMPLES) == set(RpcPacket.__slots__)
    assert len(combinations) == 128
    for names in combinations:
        packet = RpcPacket(**{name: SAMPLES[name] for name in names})
        for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
            copy = pickle.loads(pickle.dumps(packet, protocol=protocol))
            assert copy == packet, names
            assert copy.size_bytes == packet.size_bytes, names
            for name in MAPPINGS:
                if name not in names:
                    assert getattr(copy, name) is EMPTY_MAPPING


def test_a_prune_with_peer_exchange_is_written_in_place():
    # The one field write on a built packet (``_prune_peer``).
    packet = RpcPacket(prune=[("t", 60.0)])
    packet.px = {"t": ["peer-1"]}
    assert RpcPacket().px is EMPTY_MAPPING == {}
    copy = pickle.loads(pickle.dumps(packet, protocol=pickle.HIGHEST_PROTOCOL))
    assert copy == packet and copy.px == {"t": ["peer-1"]}
    # Framing, then the PRUNE (topic + backoff) and the PX (topic + peer).
    assert copy.size_bytes == packet.size_bytes == 8 + (1 + 8) + (1 + 6)
