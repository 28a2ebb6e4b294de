"""Record-sort oracle for the packed list's value -> slot index.

:class:`~repro.crypto.slot_index.SortedSlotIndex` sorts one packed
``int`` per slot (a value's top word above its slot) and re-sorts only
the runs whose top words tie. This oracle builds the same permutation
the plainest way: it sorts one ``value || slot`` bytes record per slot,
which orders bytewise exactly as ``(value, slot)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def sorted_slots(packed: bytes) -> Tuple[List[int], Optional[int]]:
    """(slots in ``(value, slot)`` order, lowest slot whose value also
    sits in an earlier slot) of 32-byte big-endian encodings."""
    records = sorted(
        packed[32 * slot : 32 * slot + 32] + slot.to_bytes(4, "big")
        for slot in range(len(packed) // 32)
    )
    order = [int.from_bytes(record[32:], "big") for record in records]
    repeats = [
        order[i]
        for i in range(1, len(records))
        if records[i][:32] == records[i - 1][:32]
    ]
    return order, min(repeats, default=None)
