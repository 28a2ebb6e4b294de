"""``SeenCache`` against the heap implementation it replaced.

The router observes *when* an ID leaves the cache (IHAVE handling asks
``in`` between witnesses), so the ordered-dict cache must drop the same
entries at the same calls as the min-heap version did, for every
interleaving with a non-decreasing clock.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossipsub.mcache import SeenCache


class HeapSeenCache:
    """The previous implementation, kept as the naive oracle."""

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


IDS = st.sampled_from("abcdef")
#: Time steps: mostly zero or small (equal instants, dense floods),
#: exactly one ttl (re-witness at the expiry instant), and gaps long
#: enough to expire everything at once.
STEPS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.5, 4.0, 4.5, 9.0, 50.0])


@settings(max_examples=300, deadline=None)
@given(
    witnesses=st.lists(st.tuples(IDS, STEPS), max_size=80),
    ttl=st.sampled_from([4.0, 1.0, 0.5]),
)
def test_same_answers_as_the_heap_oracle(witnesses, ttl):
    cache, oracle = SeenCache(ttl=ttl), HeapSeenCache(ttl=ttl)
    now = 0.0
    for msg_id, step in witnesses:
        now += step
        assert cache.witness(msg_id, now) == oracle.witness(msg_id, now)
        # ``in`` and ``len`` between witnesses, for every ID at once.
        assert len(cache) == len(oracle)
        assert all((i in cache) == (i in oracle) for i in "abcdef")


def test_stale_id_stays_visible_until_the_next_witness():
    cache = SeenCache(ttl=1.0)
    cache.witness("a", now=0.0)
    assert "a" in cache and len(cache) == 1  # nothing sweeps at t=5 ...
    assert not cache.witness("b", now=5.0)  # ... until someone witnesses
    assert "a" not in cache and len(cache) == 1
    assert not cache.witness("a", now=5.0)  # gone, so a first sighting


def test_rewitness_at_the_expiry_instant_is_a_first_sighting():
    cache = SeenCache(ttl=2.0)
    cache.witness("a", now=0.0)
    assert cache.witness("a", now=1.0)  # extends to 3.0
    assert not cache.witness("a", now=3.0)  # expiry <= now: swept first
    assert cache.witness("a", now=3.0)


class CountingDict(OrderedDict):
    """Counts every Python-level operation the cache makes on it."""

    ops = 0


def _counted(name):
    inherited = getattr(OrderedDict, name)

    def method(self, *args):
        CountingDict.ops += 1
        return inherited(self, *args)

    return method


for _name in (
    "__getitem__",
    "__setitem__",
    "__delitem__",
    "__contains__",
    "__iter__",
    "move_to_end",
):
    setattr(CountingDict, _name, _counted(_name))


def test_roll_through_keeps_len_on_the_live_window_at_bounded_cost():
    """25 000 IDs through a 50-tick ttl, each witnessed three times."""
    ttl, total = 50.0, 25_000
    cache = SeenCache(ttl=ttl)
    cache._expiry = CountingDict()
    CountingDict.ops = 0
    worst = 0
    for i in range(total):
        for offset in (0.0, 0.25, 0.5):  # a first sighting, two duplicates
            before = CountingDict.ops
            assert cache.witness(f"m{i}", float(i) + offset) == (offset > 0)
            worst = max(worst, CountingDict.ops - before)
        # Live: IDs whose last witness (j + 0.5) + ttl is still ahead.
        assert len(cache) == min(i + 1, int(ttl))
    # One ID leaves per ID that arrives, so the dearest witness is a
    # duplicate that also expires one entry: look at the oldest twice
    # (iter + read each), delete one, then contains / set / move.
    assert worst <= 8
    assert CountingDict.ops <= 6 * 3 * total
    cache.witness("idle", now=10.0 * total)  # everything expires at once
    assert len(cache) == 1
