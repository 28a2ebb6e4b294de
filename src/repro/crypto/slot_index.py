"""Packed immutable field-element list with an exact value -> slot index.

A genesis member list is immutable and huge, so a dormant identity
must cost neither a Python ``int`` nor a hash-table entry: the list is
one source of 32-byte big-endian field elements that every layer
(contract, seed event, tree leaf chunks) references, and looking a
value up in it bisects the top words of a permutation of the slots
sorted by ``(value, slot)`` — 8 more bytes per slot. It is sorted on
one small ``int`` per slot (the value's top 32 bits above the slot's
bits); only runs of tied top words are re-sorted by the full encoding.
A list derived by a rule can drop its buffer: a read then re-derives
just the slots it touches, a lookup just those that tie its top word.
Dropped before its index is sorted, it keeps the top words (4 B per
slot) for that sort, and only its tied runs are re-derived.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, count, groupby, islice, repeat
from mmap import mmap
from operator import and_, eq, itemgetter, lshift, or_, rshift
from struct import iter_unpack
from typing import Callable, Iterable, Iterator, Optional

from .digests import blake2b
from .field import Fr


class _Encodings:
    """What a list and its slices read: a buffer, or the rule after it."""

    def __init__(self, buffer: Optional[memoryview], rule) -> None:
        self.buffer, self.rule = buffer, rule

    def read(self, start: int, stop: int):
        """The encodings of slots ``start .. stop - 1``, back to back."""
        if self.buffer is None:
            return self.rule(start, stop)
        return self.buffer[32 * start : 32 * stop]


class SortedSlotIndex:
    """Which slots of a packed list hold a value."""

    def __init__(self, values: "PackedFieldList") -> None:
        #: Encoding of one slot; re-derived once the list is released.
        self._encoded_at = values._encoded_at
        n = len(values)
        bits = max(n - 1, 0).bit_length()  # of a slot, under the top word
        tops, values._tops = values._tops, None  # kept by a release
        if tops is None:
            tops = map(itemgetter(0), iter_unpack(">I28x", values._read()))
        keys = list(map(or_, map(lshift, tops, repeat(bits)), range(n)))
        del tops
        keys.sort()
        self._order = array("I", map(and_, keys, repeat((1 << bits) - 1)))
        #: Top word of the value at each position of _order.
        self._tops = tops = array("I", map(rshift, keys, repeat(bits)))
        # A run of tied top words holds ascending slots: a stable re-sort
        # by encoding puts it in (value, slot) order.
        tied = compress(count(1), map(eq, islice(tops, 1, None), tops))
        repeats = []
        for _, run in groupby(tied, key=tops.__getitem__):
            run = list(run)
            span = slice(run[0] - 1, run[-1] + 1)
            slots = sorted(self._order[span], key=self._encoded_at)
            self._order[span] = array("I", slots)
            for _, same in groupby(slots, key=self._encoded_at):
                repeats.extend(islice(same, 1, 2))
        #: Lowest slot whose value also sits in an earlier slot.
        self.first_repeat: Optional[int] = min(repeats, default=None)

    def slots(self, value: int) -> Iterator[int]:
        """The slots holding ``value``, ascending; reads only top-word ties."""
        if not 0 <= value < 1 << 256:
            return
        probe = value.to_bytes(32, "big")
        lo = bisect_left(self._tops, value >> 224)
        hi = bisect_right(self._tops, value >> 224, lo)
        for slot in self._order[lo:hi]:  # in (value, slot) order
            if self._encoded_at(slot) == probe:
                yield slot

    def first(self, value: int) -> Optional[int]:
        """The lowest slot holding ``value``, or None."""
        return next(self.slots(value), None)

    @property
    def nbytes(self) -> int:
        """Size of the index buffers (host memory, not modelled storage)."""
        return 2 * len(self._order) * self._order.itemsize


class PackedFieldList:
    """Immutable sequence of canonical field elements, 32 B each, in
    one buffer (or its rule). Reads decode to ``int``; a contiguous
    slice is a view of the same source (the full range is the list
    itself, index included); equality, hash, ``repr`` and pickling go
    by content."""

    __slots__ = ("_source", "_start", "_stop", "_index", "_tops")

    def __init__(self, packed=b"", rule: Optional[Callable] = None) -> None:
        """``packed``: 32-byte big-endian encodings, back to back; if
        given, ``rule(start, stop)`` derives those of any slot range.
        An anonymous ``mmap`` is held as is, so release() unmaps it."""
        packed = memoryview(packed if isinstance(packed, mmap) else bytes(packed))
        if len(packed) % 32:
            raise ValueError("packed field elements are 32 bytes each")
        self._source = _Encodings(packed, rule)
        self._start, self._stop = 0, len(packed) // 32
        self._index: Optional[SortedSlotIndex] = None
        #: Top words kept by release() for an index not sorted yet.
        self._tops: Optional[array] = None

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

    def release(self) -> None:
        """Drop the buffer: reads of the list, its slices and its index
        re-derive the slots they need from here on. An index not yet
        sorted keeps the top word of each slot to sort on."""
        if self._source.rule is None:
            raise ValueError("only a rule-backed list can drop its buffer")
        if self._index is None and self._source.buffer is not None:
            tops = iter_unpack(">I28x", self._read())
            self._tops = array("I", map(itemgetter(0), tops))
        self._source.buffer = None

    def _read(self):
        return self._source.read(self._start, self._stop)

    def _encoded_at(self, slot: int) -> bytes:
        slot += self._start
        return bytes(self._source.read(slot, slot + 1))

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, item):
        if isinstance(item, slice):
            span = range(len(self))[item]
            if span.step != 1:
                raise ValueError("packed lists slice contiguously only")
            if len(span) == len(self):
                return self
            view = object.__new__(PackedFieldList)
            view._source, view._index, view._tops = self._source, None, None
            view._start = self._start + span.start
            view._stop = view._start + len(span)
            return view
        return int.from_bytes(self._encoded_at(range(len(self))[item]), "big")

    def __iter__(self) -> Iterator[int]:
        encoded = iter_unpack("32s", self._read())
        return map(int.from_bytes, map(itemgetter(0), encoded), repeat("big"))

    def __bytes__(self) -> bytes:
        return bytes(self._read())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedFieldList):
            return NotImplemented
        return self._read() == other._read()

    def __hash__(self) -> int:
        return hash(bytes(self))

    def __repr__(self) -> str:
        digest = blake2b(self._read(), digest_size=16).hexdigest()
        return f"PackedFieldList(n={len(self)}, blake2b={digest})"

    def __reduce__(self):
        return PackedFieldList, (bytes(self),)  # the child re-sorts lazily

    @property
    def index(self) -> SortedSlotIndex:
        """value -> slots lookup over this list; sorted once, on first use."""
        if self._index is None:
            self._index = SortedSlotIndex(self)
        return self._index

    @property
    def index_bytes(self) -> int:
        """Host bytes of the lookup index (0 until first used)."""
        return 0 if self._index is None else self._index.nbytes
