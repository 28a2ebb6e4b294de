"""The router's previous caches, kept as test oracles.

:class:`HeapSeenCache` and, after it, :class:`OrderedSeenCache` drop
the expired IDs on every ``witness``, found through a min-heap or by
keeping last-witness order; :class:`DequeMessageCache` keeps
one ``deque`` slot per heartbeat window, empty or not. The shipped
caches (``repro.gossipsub.mcache``) keep a plain expiry dict that is
compacted lazily and only the non-empty windows; every answer must be
the same.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque


class HeapSeenCache:
    """Queues an ``(expiry, id)`` heap entry beside every dict slot."""

    def __init__(self, ttl: float) -> None:
        self.ttl = ttl
        self._expiry = {}
        self._heap = []  # (queued expiry, msg_id), one entry per live ID

    def witness(self, msg_id: str, now: float) -> bool:
        heap, expiry = self._heap, self._expiry
        while heap and heap[0][0] <= now:
            actual = expiry.get(heap[0][1])
            if actual is not None and actual > now:
                # Re-witnessed since it was queued: real expiry is later.
                heapq.heapreplace(heap, (actual, heap[0][1]))
                continue
            expiry.pop(heapq.heappop(heap)[1], None)
        seen = msg_id in expiry
        expiry[msg_id] = now + self.ttl
        if not seen:
            heapq.heappush(heap, (now + self.ttl, msg_id))
        return seen

    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self._expiry

    def __len__(self) -> int:
        return len(self._expiry)


class OrderedSeenCache:
    """Sweeps the expired head of an ordered dict on every witness."""

    def __init__(self, ttl=120.0):
        self.ttl = ttl
        self._expiry = OrderedDict()  # msg_id -> expiry, oldest first

    def witness(self, msg_id, now):
        expiry = self._expiry
        while expiry:
            oldest = next(iter(expiry))
            if expiry[oldest] > now:
                break
            del expiry[oldest]
        seen = msg_id in expiry
        expiry[msg_id] = now + self.ttl
        if seen:
            expiry.move_to_end(msg_id)
        return seen

    def __contains__(self, msg_id):
        return msg_id in self._expiry

    def __len__(self):
        return len(self._expiry)


class DequeMessageCache:
    """One window per heartbeat, newest first, empty ones included."""

    def __init__(self, history_length=5, gossip_length=3):
        if gossip_length > history_length:
            raise ValueError("gossip window cannot exceed history window")
        self.history_length = history_length
        self.gossip_length = gossip_length
        self._messages = {}
        self._windows = deque([{}])  # each: topic -> IDs in insertion order

    def put(self, message):
        if message.msg_id in self._messages:
            return
        self._messages[message.msg_id] = message
        self._windows[0].setdefault(message.topic, []).append(message.msg_id)

    def get(self, msg_id):
        return self._messages.get(msg_id)

    def gossip_ids(self, topic):
        out = []
        for i in range(min(self.gossip_length, len(self._windows))):
            ids = self._windows[i].get(topic)
            if ids:
                out.extend(ids)
        return out

    def shift(self):
        self._windows.appendleft({})
        while len(self._windows) > self.history_length:
            expired = self._windows.pop()
            for ids in expired.values():
                for msg_id in ids:
                    self._messages.pop(msg_id, None)

    def __len__(self):
        return len(self._messages)
