"""The reference bookkeeping, kept as a test oracle.

The router's heartbeat does O(changed) work: score counters decay on a
global clock and catch up when read, only dirty topics (or topics whose
mesh holds a suspect) are maintained, and the score gates skip peers the
suspect set proves non-negative. The reference it replaced does all of
that work every time: :class:`EagerTracker` sweeps every counter of
every peer on each decay tick and computes every score afresh, and
:class:`SweepRouter` maintains every subscribed topic on every
heartbeat and consults no suspect set. Outcomes must be bit-identical.
"""

from __future__ import annotations

import copy

from repro.gossipsub.router import GossipSubRouter
from repro.gossipsub.score import PeerScoreTracker


def clear_memos(tracker):
    """Drop every peer's score memo."""
    for stats in tracker._peers.values():
        stats.memo = None


class EagerTracker(PeerScoreTracker):
    """Every tick sweeps every counter; no memo, no suspect shortcut."""

    def decay(self):
        super().decay()
        for stats in self._peers.values():
            for tstats in stats.topics:
                self._materialize_topic(
                    tstats, self.params.for_topic(tstats.topic)
                )
            self._materialize_behaviour(stats)

    def score(self, peer, now=0.0):
        clear_memos(self)
        return super().score(peer, now)

    def maybe_negative(self, peer):
        return True


class _Everyone(set):
    """A suspect set holding every peer: each gate scores for real.
    It keeps the peers added to it, and never empties."""

    def __contains__(self, peer):
        return True

    def __bool__(self):
        return True


class SweepRouter(GossipSubRouter):
    """Maintains every subscribed topic on every heartbeat."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scores = EagerTracker(self.scores.params)
        self.scores._suspects = _Everyone()

    def heartbeat(self):
        # A dirty topic is maintained on the next heartbeat; marking
        # all of them turns the O(changed) pass into the full sweep.
        for topic in sorted(self.subscriptions):
            self._mark_dirty(topic)
        super().heartbeat()


def fresh_scores(tracker, peers, now):
    """``tracker``'s scores recomputed from state, memo cleared, on a
    copy (``score`` materialises counters, which must not leak into the
    tracker under test)."""
    clone = copy.deepcopy(tracker)
    clear_memos(clone)
    return [clone.score(peer, now) for peer in peers]


def memo_scores(tracker, peers, now):
    """``tracker``'s scores as its memo answers them, on a copy."""
    clone = copy.deepcopy(tracker)
    return [clone.score(peer, now) for peer in peers]
