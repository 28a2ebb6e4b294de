"""Message cache (mcache) and seen-cache for the gossipsub router."""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, List, Optional

from .rpc import GossipMessage


class MessageCache:
    """Sliding-window cache backing IHAVE/IWANT gossip.

    Holds the last ``history_length`` heartbeat windows of messages; the
    most recent ``gossip_length`` windows are advertised in IHAVE. The
    router calls :meth:`shift` once per heartbeat.

    Windows are indexed **per topic**, so :meth:`gossip_ids` touches
    only the queried topic's IDs (in insertion order) and an idle topic
    costs a dict miss — on a multiplexed mesh the heartbeat's gossip
    emission is O(own traffic), not O(all traffic x topics).
    :meth:`shift` is amortised O(1) per cached message: each ID is
    appended once and dropped once.
    """

    def __init__(self, history_length: int = 5, gossip_length: int = 3) -> None:
        if gossip_length > history_length:
            raise ValueError("gossip window cannot exceed history window")
        self.history_length = history_length
        self.gossip_length = gossip_length
        self._messages: Dict[str, GossipMessage] = {}
        #: Newest window first; each window maps topic -> message IDs
        #: in insertion order.
        self._windows: deque[Dict[str, List[str]]] = deque([{}])

    def put(self, message: GossipMessage) -> None:
        if message.msg_id in self._messages:
            return
        self._messages[message.msg_id] = message
        self._windows[0].setdefault(message.topic, []).append(message.msg_id)

    def get(self, msg_id: str) -> Optional[GossipMessage]:
        return self._messages.get(msg_id)

    def gossip_ids(self, topic: str) -> List[str]:
        """Message IDs for ``topic`` within the gossip window."""
        out: List[str] = []
        for i in range(min(self.gossip_length, len(self._windows))):
            ids = self._windows[i].get(topic)
            if ids:
                out.extend(ids)
        return out

    def shift(self) -> None:
        """Advance one heartbeat; drop messages older than the history."""
        self._windows.appendleft({})
        while len(self._windows) > self.history_length:
            expired = self._windows.pop()
            for ids in expired.values():
                for msg_id in ids:
                    self._messages.pop(msg_id, None)

    def __len__(self) -> int:
        return len(self._messages)


class SeenCache:
    """Time-based duplicate suppression.

    Gossip floods produce many duplicate deliveries; each message ID is
    remembered for ``ttl`` simulated seconds (re-witnessing extends the
    window). ``ttl`` is constant and callers pass a ``now`` that never
    decreases (the simulated clock), so keeping the IDs in last-witness
    order *is* keeping them in expiry order: every :meth:`witness`
    drops the few leading entries whose time has come, O(1) amortised
    with no second index, and memory tracks the live working set. A
    ``now`` earlier than a previous call's is outside the contract.

    Expiry happens only inside :meth:`witness`, so ``in`` keeps
    answering for a stale ID until this peer's next witness.
    """

    def __init__(self, ttl: float = 120.0) -> None:
        self.ttl = ttl
        #: msg_id -> expiry, oldest witness first. An ``OrderedDict``
        #: because it pops its first entry in O(1); a plain dict scans
        #: past every slot deleted since its last resize to find it.
        self._expiry: "OrderedDict[str, float]" = OrderedDict()

    def witness(self, msg_id: str, now: float) -> bool:
        """Record ``msg_id``; returns True when it was seen already."""
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

    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self._expiry

    def __len__(self) -> int:
        return len(self._expiry)
