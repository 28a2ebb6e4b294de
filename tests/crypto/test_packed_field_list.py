"""``PackedFieldList`` against a tuple of canonical ints.

The packed genesis list replaces a tuple of ``int``s in the contract,
the seed event and the tree, so everything those layers do with it —
indexing, slicing, iteration, value lookups, duplicate detection,
content identity across processes — is checked against the tuple.
The lookup index is also checked against the plain ``value || slot``
record sort of ``slot_index_oracle`` on lists built to tie, and a list
that dropped its buffer for the rule that derived it against the same
tuple.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import Fr
from repro.crypto.keys import IdentityCommitment
from repro.crypto.slot_index import PackedFieldList
from repro.errors import FieldError
from slot_index_oracle import sorted_slots

P = Fr.MODULUS

#: Few distinct values, so repeats are common; the edges of the field.
SMALL = st.sampled_from([0, 1, 2, 3, 5, P - 1, P - 2, 1 << 255, 1 << 32])
ANY_INT = st.one_of(
    SMALL,
    st.integers(min_value=0, max_value=P - 1),
    st.integers(min_value=-(1 << 260), max_value=1 << 260),
)
ITEM = st.one_of(
    ANY_INT,
    st.booleans(),
    ANY_INT.map(Fr),
    ANY_INT.map(lambda v: IdentityCommitment(Fr(v))),
)


#: Values the index's top-word sort cannot tell apart: a shared top 32
#: bits (0, 1, the modulus's, the sign bit's, all ones) over low bits
#: that differ or repeat; the edges of the field and of 256 bits.
TIED = st.builds(
    lambda top, low: top << 224 | low,
    st.sampled_from([0, 1, P >> 224, 1 << 31, (1 << 32) - 1]),
    st.one_of(
        st.sampled_from([0, 1, 2, (1 << 224) - 1]),
        st.integers(min_value=0, max_value=(1 << 224) - 1),
    ),
)
RAW = st.one_of(
    TIED,
    st.sampled_from([0, 1, P - 1, 1 << 255, (1 << 256) - 1]),
    st.integers(min_value=0, max_value=(1 << 256) - 1),
)
#: Lengths at the boundaries of the slot bits packed under the top word.
LENGTHS = sorted(
    {0, 1, 2, 3} | {(1 << k) + d for k in range(2, 9) for d in (-1, 0, 1)}
)


def canonical(item) -> int:
    """What ``Fr`` makes of one input item."""
    return Fr(getattr(item, "element", item)).value


@settings(max_examples=150, deadline=None)
@given(items=st.lists(ITEM, max_size=30), data=st.data())
def test_reads_match_a_tuple_of_canonical_ints(items, data):
    model = tuple(canonical(item) for item in items)
    packed = PackedFieldList.of(items)
    n = len(model)
    assert len(packed) == n and bool(packed) == bool(model)
    assert tuple(packed) == model and tuple(packed) == model  # re-iterable
    assert bytes(packed) == b"".join(v.to_bytes(32, "big") for v in model)
    for i in range(-n, n):
        assert packed[i] == model[i] and type(packed[i]) is int
    for i in (n, -n - 1, n + 7):
        with pytest.raises(IndexError):
            packed[i]
    bound = st.one_of(st.none(), st.integers(-n - 3, n + 3))
    lo, hi = data.draw(bound), data.draw(bound)
    view = packed[lo:hi]
    assert isinstance(view, PackedFieldList)
    assert tuple(view) == model[lo:hi] and len(view) == len(model[lo:hi])
    # A slice is a view of the same source, not a copy ...
    assert view._source is packed._source
    # ... and the full range is the list itself, so its index is shared.
    assert (view is packed) == (len(view) == n)
    assert packed[:] is packed and packed[0:] is packed
    with pytest.raises(ValueError):
        packed[::2]


@settings(max_examples=150, deadline=None)
@given(items=st.lists(ITEM, max_size=30), probes=st.lists(ANY_INT, max_size=6))
def test_lookups_match_a_scan(items, probes):
    model = tuple(canonical(item) for item in items)
    packed = PackedFieldList.of(items)
    assert packed.index_bytes == 0  # nothing sorted until asked
    index = packed.index
    assert packed.index is index and packed.index_bytes == 8 * len(model)
    for value in {*model, *probes, 0, -1, P, 1 << 256, (1 << 256) - 1}:
        held = [slot for slot, v in enumerate(model) if v == value]
        assert list(index.slots(value)) == held
        assert index.first(value) == (held[0] if held else None)
    later_copies = [
        slot for slot, v in enumerate(model) if v in model[:slot]
    ]
    assert index.first_repeat == min(later_copies, default=None)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_index_equals_the_record_sort_on_tied_values(data):
    n = data.draw(st.sampled_from(LENGTHS))
    pool = data.draw(st.lists(RAW, min_size=1, max_size=4))
    value = st.one_of(RAW, st.sampled_from(pool))  # repeats are common
    values = data.draw(st.lists(value, min_size=n, max_size=n))
    packed = b"".join(v.to_bytes(32, "big") for v in values)
    index = PackedFieldList(packed).index
    order, first_repeat = sorted_slots(packed)
    assert list(index._order) == order
    assert index.first_repeat == first_repeat
    probes = data.draw(st.lists(RAW, max_size=4))
    for v in {*values, *probes, *(v + 1 for v in values)}:
        held = [slot for slot, w in enumerate(values) if w == v]
        assert list(index.slots(v)) == held


@settings(max_examples=100, deadline=None)
@given(items=st.lists(ITEM, max_size=20), other=st.lists(ITEM, max_size=20))
def test_identity_is_content(items, other):
    packed = PackedFieldList.of(items)
    assert PackedFieldList.of(packed) is packed
    twin = PackedFieldList.of([canonical(item) for item in items])
    assert twin == packed and hash(twin) == hash(packed)
    assert repr(twin) == repr(packed) and f"n={len(items)}" in repr(packed)
    packed.index  # built here; a pickle carries the buffer only
    clone = pickle.loads(pickle.dumps(packed))
    assert clone == packed and repr(clone) == repr(packed)
    assert tuple(clone) == tuple(packed)
    assert clone.index_bytes == 0
    assert len(pickle.dumps(packed)) < 32 * len(items) + 120
    different = PackedFieldList.of(other)
    same = tuple(different) == tuple(packed)
    assert (different == packed) == same
    assert (repr(different) == repr(packed)) == same
    assert packed != tuple(packed)  # only another packed list is equal


def test_a_slice_equals_the_same_values_packed_alone():
    packed = PackedFieldList.of(range(1, 9))
    assert packed[2:5] == PackedFieldList.of([3, 4, 5])
    assert pickle.loads(pickle.dumps(packed[2:5])) == packed[2:5]
    assert len(bytes(packed[2:5])) == 96
    assert list(packed[2:5].index.slots(4)) == [1]  # a view's own index


def test_rejects_what_fr_rejects_and_ragged_buffers():
    with pytest.raises(FieldError):
        PackedFieldList.of([1, "2"])
    with pytest.raises(FieldError):
        PackedFieldList.of([1.0])
    with pytest.raises(ValueError):
        PackedFieldList(b"\x00" * 33)
    assert len(PackedFieldList()) == 0 and list(PackedFieldList()) == []
    assert PackedFieldList().index.first(0) is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_released_rule_backed_list_reads_as_a_tuple(data):
    n = data.draw(st.sampled_from(LENGTHS))
    pool = data.draw(st.lists(RAW, min_size=1, max_size=4))
    value = st.one_of(RAW, st.sampled_from(pool))
    model = tuple(data.draw(st.lists(value, min_size=n, max_size=n)))
    derived = []  # the slot ranges the rule was asked for

    def rule(start, stop):
        derived.append((start, stop))
        return b"".join(v.to_bytes(32, "big") for v in model[start:stop])

    packed = PackedFieldList(rule(0, n), rule=rule)
    sorted_first = data.draw(st.booleans())
    if sorted_first:  # as a deployment does: sort, then release
        packed.index
    lo, hi = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    early = packed[lo:hi]  # a slice taken while the buffer was held
    packed.release()
    assert packed._source.buffer is None and derived == [(0, n)]
    assert len(packed) == n and tuple(packed) == model
    encoded = b"".join(v.to_bytes(32, "big") for v in model)
    assert bytes(packed) == encoded and packed == PackedFieldList(encoded)
    assert tuple(early) == model[lo:hi] == tuple(packed[lo:hi])
    for i in range(-n, n):
        assert packed[i] == model[i]
    for i in range(len(early)):
        assert early[i] == model[lo + i]
    index = packed.index
    assert index.nbytes == 8 * n
    later = [slot for slot, v in enumerate(model) if v in model[:slot]]
    assert index.first_repeat == min(later, default=None)
    probes = data.draw(st.lists(RAW, max_size=4))
    for v in {*model, *probes, *(v + 1 for v in model)}:
        held = [slot for slot, w in enumerate(model) if w == v]
        derived.clear()
        assert list(index.slots(v)) == held
        assert index.first(v) == (held[0] if held else None)
        # Only slots whose top word ties the probe's are derived.
        assert all(stop == slot + 1 for slot, stop in derived)
        assert all(model[slot] >> 224 == v >> 224 for slot, _ in derived)


def test_only_a_rule_backed_list_drops_its_buffer():
    with pytest.raises(ValueError):
        PackedFieldList.of([1, 2]).release()
