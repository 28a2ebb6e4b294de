"""Message cache (mcache) and seen-cache for the gossipsub router."""

from __future__ import annotations

from typing import Dict, List, Optional

from .rpc import GossipMessage


class MessageCache:
    """Sliding-window cache backing IHAVE/IWANT gossip.

    Holds the last ``history_length`` heartbeat windows of messages; the
    most recent ``gossip_length`` windows are advertised in IHAVE. The
    router calls :meth:`shift` once per heartbeat.

    Windows are indexed **per topic**, so :meth:`gossip_ids` touches
    only the queried topic's IDs (in insertion order) and an idle topic
    costs a few list reads — on a multiplexed mesh the heartbeat's
    gossip emission is O(own traffic), not O(all traffic x topics).
    The windows are flat: one ``[shift count, topic, *IDs]`` list per
    topic a window received, oldest window first and, within a window,
    in the order its topics first arrived — no dict per window, one
    object per entry, and only windows that received a message exist,
    so an idle router holds an empty list. :meth:`shift` is amortised
    O(1) per cached message.
    """

    def __init__(self, history_length: int = 5, gossip_length: int = 3) -> None:
        self.history_length = history_length
        self.gossip_length = gossip_length
        self._messages: Dict[str, GossipMessage] = {}
        self._windows: List[list] = []
        self._shifts = 0

    def put(self, message: GossipMessage) -> None:
        msg_id, topic, shifts = message.msg_id, message.topic, self._shifts
        if msg_id in self._messages:
            return
        self._messages[msg_id] = message
        # The current window's entries are the list's tail.
        for entry in reversed(self._windows):
            if entry[0] != shifts:
                break
            if entry[1] == topic:
                entry.append(msg_id)
                return
        self._windows.append([shifts, topic, msg_id])

    def get(self, msg_id: str) -> Optional[GossipMessage]:
        return self._messages.get(msg_id)

    def gossip_ids(self, topic: str) -> List[str]:
        """``topic``'s IDs in the gossip window, newest window first."""
        out: List[str] = []
        oldest = self._shifts - self.gossip_length
        for entry in reversed(self._windows):
            if entry[0] <= oldest:
                break
            if entry[1] == topic:
                out += entry[2:]
        return out

    def shift(self) -> None:
        """Advance one heartbeat; drop messages older than the history."""
        self._shifts += 1
        horizon = self._shifts - self.history_length
        windows = self._windows
        while windows and windows[0][0] <= horizon:
            for msg_id in windows.pop(0)[2:]:
                del self._messages[msg_id]

    def __len__(self) -> int:
        return len(self._messages)


class SeenCache:
    """Time-based duplicate suppression.

    Gossip floods produce many duplicate deliveries; each message ID is
    remembered for ``ttl`` simulated seconds (re-witnessing extends the
    window). Callers pass a ``now`` that never decreases (the simulated
    clock). One plain dict maps each ID to its expiry, updated in place.

    An ID is present while its expiry lies after the clock of the last
    :meth:`witness`. That is exactly the cache this replaced
    (``tests/gossipsub/cache_oracle.py``), whose every witness swept
    the entries with ``expiry <= now``: a stale ID answers ``in`` until
    this peer's next witness at or after its expiry.

    Expired entries are dropped lazily: the dict is rebuilt from its
    live entries when it has doubled since the last rebuild *and* some
    entry can have expired (``_floor`` is at most every held expiry).
    The insertions that doubled it pay for the rebuild, and it holds at
    most twice its last live set (64 at least) or only live entries.
    """

    def __init__(self, ttl: float = 120.0) -> None:
        self.ttl = ttl
        self._expiry: Dict[str, float] = {}
        self._now = self._floor = float("-inf")
        self._limit = 64

    def witness(self, msg_id: str, now: float) -> bool:
        """Record ``msg_id``; returns True when it was seen already."""
        expiry = self._expiry
        seen = expiry.get(msg_id, now) > now  # absent reads as expired
        expiry[msg_id] = now + self.ttl
        self._now = now
        if self._floor <= now and len(expiry) > self._limit:
            self._expiry = live = {i: e for i, e in expiry.items() if e > now}
            # No later insertion (``now + ttl``) can expire earlier.
            self._floor = min(live.values(), default=now)
            self._limit = max(64, 2 * len(live))
        return seen

    def __contains__(self, msg_id: str) -> bool:
        return self._expiry.get(msg_id, self._now) > self._now

    def __len__(self) -> int:
        return sum(expiry > self._now for expiry in self._expiry.values())
