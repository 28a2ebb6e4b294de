"""Compact exact value -> slot index over a fixed run of slots.

A genesis member list is immutable and huge, so looking a value up in
it must not cost a hash-table entry per identity: the index holds only
a permutation of the slots sorted by ``(value, slot)`` — 4 bytes per
slot — and bisects it, reading values back through the owner.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress, islice
from operator import eq
from typing import Callable, Iterator, Optional


class SortedSlotIndex:
    """Which of the slots ``0 .. count-1`` hold a given value.

    ``value_at(slot)`` must keep returning the value the slot held when
    the index was built (the owner's immutable, or journaled, view).
    """

    def __init__(self, count: int, value_at: Callable[[int], int]) -> None:
        self._value_at = value_at
        # sorted() is stable: equal values stay in ascending slot order.
        self._order = array("I", sorted(range(count), key=value_at))

    def slots(self, value: int) -> Iterator[int]:
        """The slots holding ``value``, ascending."""
        order, value_at = self._order, self._value_at
        start = bisect_left(order, value, key=value_at)
        for position in range(start, len(order)):
            slot = order[position]
            if value_at(slot) != value:
                return
            yield slot

    def first_repeat(self) -> Optional[int]:
        """Lowest slot whose value also sits in an earlier slot."""
        values = list(map(self._value_at, self._order))
        same_as_previous = map(eq, islice(values, 1, None), values)
        repeats = compress(islice(self._order, 1, None), same_as_previous)
        return min(repeats, default=None)

    @property
    def nbytes(self) -> int:
        """Size of the index buffer (host memory, not modelled storage)."""
        return len(self._order) * self._order.itemsize
