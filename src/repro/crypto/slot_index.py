"""Packed immutable field-element list with an exact value -> slot index.

A genesis member list is immutable and huge, so a dormant identity
must cost neither a Python ``int`` nor a hash-table entry: the list is
one buffer of 32-byte big-endian field elements that every layer
(contract, seed event, tree leaf chunks) references, and looking a
value up in it bisects a permutation of the slots sorted by
``(value, slot)`` — 4 more bytes per slot. It is sorted on one small
``int`` per slot (the value's top 32 bits above the slot's bits); only
runs of tied top words are re-sorted by the full encoding.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress, count, groupby, islice, repeat
from operator import and_, eq, itemgetter, lshift, or_, rshift
from struct import iter_unpack
from typing import Iterable, Iterator, Optional

from .digests import blake2b
from .field import Fr


def _values(packed: memoryview) -> Iterator[bytes]:
    """The 32-byte encodings in ``packed``, in slot order."""
    return map(itemgetter(0), iter_unpack("32s", packed))


class SortedSlotIndex:
    """Which slots of a packed run of field elements hold a value."""

    def __init__(self, packed: memoryview) -> None:
        self._packed = packed
        n = len(packed) // 32
        bits = max(n - 1, 0).bit_length()  # of a slot, under the top word
        tops = map(itemgetter(0), iter_unpack(">I28x", packed))
        keys = list(map(or_, map(lshift, tops, repeat(bits)), range(n)))
        keys.sort()
        self._order = array("I", map(and_, keys, repeat((1 << bits) - 1)))
        # A run of tied top words holds ascending slots: a stable re-sort
        # by encoding puts it in (value, slot) order.
        tops = map(rshift, keys, repeat(bits))
        later = map(rshift, islice(keys, 1, None), repeat(bits))
        tied = compress(count(1), map(eq, later, tops))
        repeats = []
        for _, run in groupby(tied, key=lambda i: keys[i] >> bits):
            run = list(run)
            span = slice(run[0] - 1, run[-1] + 1)
            slots = sorted(self._order[span], key=self._encoded_at)
            self._order[span] = array("I", slots)
            for _, same in groupby(slots, key=self._encoded_at):
                repeats.extend(islice(same, 1, 2))
        #: Lowest slot whose value also sits in an earlier slot.
        self.first_repeat: Optional[int] = min(repeats, default=None)

    def _encoded_at(self, slot: int) -> bytes:
        return self._packed[32 * slot : 32 * slot + 32].tobytes()

    def slots(self, value: int) -> Iterator[int]:
        """The slots holding ``value``, ascending."""
        if not 0 <= value < 1 << 256:
            return
        probe = value.to_bytes(32, "big")
        order = self._order
        start = bisect_left(order, probe, key=self._encoded_at)
        for position in range(start, len(order)):
            slot = order[position]
            if self._encoded_at(slot) != probe:
                return
            yield slot

    def first(self, value: int) -> Optional[int]:
        """The lowest slot holding ``value``, or None."""
        return next(self.slots(value), None)

    @property
    def nbytes(self) -> int:
        """Size of the index buffer (host memory, not modelled storage)."""
        return len(self._order) * self._order.itemsize


class PackedFieldList:
    """Immutable sequence of canonical field elements, 32 B each, in
    one buffer. Reads decode to ``int``; a contiguous slice is a view
    of the same buffer (the full range is the list itself, index
    included); equality, hash, ``repr`` and pickling go by content."""

    __slots__ = ("_packed", "_index")

    def __init__(self, packed=b"") -> None:
        """``packed``: 32-byte big-endian encodings, back to back."""
        if not isinstance(packed, memoryview):  # a slice hands a view
            packed = memoryview(bytes(packed))
        if len(packed) % 32:
            raise ValueError("packed field elements are 32 bytes each")
        self._packed = packed
        self._index: Optional[SortedSlotIndex] = None

    @classmethod
    def of(cls, items: Iterable) -> "PackedFieldList":
        """``items`` (ints, ``Fr``, identity commitments) reduced into
        the field as ``Fr`` does; a packed list is returned as is."""
        if isinstance(items, cls):
            return items
        packed = bytearray()
        for item in items:
            packed += Fr(getattr(item, "element", item)).to_bytes()
        return cls(packed)

    def __len__(self) -> int:
        return len(self._packed) // 32

    def __getitem__(self, item):
        if isinstance(item, slice):
            span = range(len(self))[item]
            if span.step != 1:
                raise ValueError("packed lists slice contiguously only")
            if len(span) == len(self):
                return self
            stop = span.start + len(span)
            return PackedFieldList(self._packed[32 * span.start : 32 * stop])
        offset = 32 * range(len(self))[item]
        return int.from_bytes(self._packed[offset : offset + 32], "big")

    def __iter__(self) -> Iterator[int]:
        return map(int.from_bytes, _values(self._packed), repeat("big"))

    def __bytes__(self) -> bytes:
        return self._packed.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedFieldList):
            return NotImplemented
        return self._packed == other._packed

    def __hash__(self) -> int:
        return hash(self._packed)

    def __repr__(self) -> str:
        digest = blake2b(self._packed, digest_size=16).hexdigest()
        return f"PackedFieldList(n={len(self)}, blake2b={digest})"

    def __reduce__(self):
        return PackedFieldList, (bytes(self),)  # the child re-sorts lazily

    @property
    def index(self) -> SortedSlotIndex:
        """value -> slots lookup over this list; sorted once, on first use."""
        if self._index is None:
            self._index = SortedSlotIndex(self._packed)
        return self._index

    @property
    def index_bytes(self) -> int:
        """Host bytes of the lookup index (0 until first used)."""
        return 0 if self._index is None else self._index.nbytes
