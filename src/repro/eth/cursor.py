"""One tested implementation of "where was I in the event log".

Every chain observer in the reproduction — peers syncing their
membership replica, the adversary engine routing ``MemberRemoved``
events to its agents, watchtower services enforcing on behalf of
delegators — polls :meth:`Blockchain.events_since` and advances a
high-water mark past the events it consumed. :class:`EventCursor`
factors that bookkeeping into one place: it remembers the next
``log_index`` to read, optionally filters to one contract's events,
and exposes the position as a plain integer so event-sourced services
(the watchtower store) can persist it and resume exactly where a
crashed process left off.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .chain import Blockchain, Event


class EventCursor:
    """A resumable read position in a chain's append-only event log.

    ``poll()`` returns the events appended since the last poll —
    filtered to ``contract`` when one is given — and advances the
    cursor past *everything* it saw, matching events or not, so the
    next poll is O(new events) regardless of how many foreign
    contracts log in between. ``log_index`` is the single piece of
    state: copy it to clone a position, persist it to survive a
    restart, pass it back via ``start`` to resume.
    """

    __slots__ = ("chain", "contract", "log_index")

    _NO_EVENTS: Tuple[Event, ...] = ()

    def __init__(
        self,
        chain: Blockchain,
        contract: Optional[str] = None,
        start: int = 0,
    ) -> None:
        if start < 0:
            raise ValueError("cursor cannot start before the log")
        self.chain = chain
        self.contract = contract
        self.log_index = start

    def poll(self) -> Tuple[Event, ...]:
        """Consume and return events appended since the last poll."""
        events = self.chain.events_since(self.log_index)
        if not events:
            return events
        self.log_index = events[-1].log_index + 1
        contract = self.contract
        if contract is None:
            return events
        matching = tuple(e for e in events if e.contract == contract)
        return matching if matching else self._NO_EVENTS

    def catch_up(self, handler: Callable[[Event], None]) -> int:
        """Replay every pending (filtered) event through ``handler``.

        Returns the number of events handled. This is the one-call
        form of the poll loop every event-sourced replica runs after a
        gap — a watchtower restart, or a parallel worker rebuilding a
        chain replica's derived state from a committed position.
        """
        count = 0
        for event in self.poll():
            handler(event)
            count += 1
        return count

    @property
    def caught_up(self) -> bool:
        """True when the cursor sits at the head of the log."""
        return self.log_index >= len(self.chain.event_log)

    def seek(self, log_index: int) -> None:
        """Move to an absolute position (restart/replay paths)."""
        if log_index < 0:
            raise ValueError("cursor cannot seek before the log")
        self.log_index = log_index
