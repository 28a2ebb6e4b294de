"""``SeenCache`` against the two implementations before it.

The router observes *when* an ID leaves the cache (IHAVE handling asks
``in`` between witnesses), so the plain-dict cache with lazy expiry
must answer like the min-heap version and the ordered-dict version
that swept on every witness (both in ``cache_oracle.py``), for every
interleaving with a non-decreasing clock — across its compactions too.
"""

from __future__ import annotations

import pytest
from cache_oracle import HeapSeenCache, OrderedSeenCache
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossipsub.mcache import SeenCache


IDS = st.sampled_from("abcdef")
#: Time steps: mostly zero or small (equal instants, dense floods),
#: exactly one ttl (re-witness at the expiry instant), and gaps long
#: enough to expire everything at once.
STEPS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.5, 4.0, 4.5, 9.0, 50.0])


@pytest.mark.parametrize("oracle_class", [HeapSeenCache, OrderedSeenCache])
@settings(max_examples=300, deadline=None)
@given(
    witnesses=st.lists(st.tuples(IDS, STEPS), max_size=80),
    ttl=st.sampled_from([4.0, 1.0, 0.5]),
)
def test_same_answers_as_each_oracle(oracle_class, witnesses, ttl):
    cache, oracle = SeenCache(ttl=ttl), oracle_class(ttl=ttl)
    now = 0.0
    for msg_id, step in witnesses:
        now += step
        assert cache.witness(msg_id, now) == oracle.witness(msg_id, now)
        # ``in`` and ``len`` between witnesses, for every ID at once.
        assert len(cache) == len(oracle)
        assert all((i in cache) == (i in oracle) for i in "abcdef")


#: Enough IDs that the dict outgrows its 64-entry minimum and compacts.
MANY_IDS = st.integers(0, 299).map("m{}".format)


@settings(max_examples=150, deadline=None)
@given(
    witnesses=st.lists(st.tuples(MANY_IDS, STEPS, MANY_IDS), max_size=400),
    ttl=st.sampled_from([9.0, 4.0, 1.0]),
)
def test_compaction_keeps_the_ordered_oracle_answers(witnesses, ttl):
    cache, oracle = SeenCache(ttl=ttl), OrderedSeenCache(ttl=ttl)
    now, peak_live = 0.0, 0
    for msg_id, step, probe in witnesses:
        now += step
        assert cache.witness(msg_id, now) == oracle.witness(msg_id, now)
        assert len(cache) == len(oracle)
        assert (probe in cache) == (probe in oracle)
        peak_live = max(peak_live, len(oracle))
        _assert_bounded(cache, len(oracle), peak_live)
    assert all((f"m{i}" in cache) == (f"m{i}" in oracle) for i in range(300))


def _assert_bounded(cache, live, peak_live):
    """The documented bound: at most twice a live set the cache held
    (64 at least), or nothing but live entries."""
    held = len(cache._expiry)
    assert held <= cache._limit or held == live
    assert cache._limit <= max(64, 2 * peak_live)


def test_compaction_drops_exactly_the_expired_entries():
    """One new ID every 1/256 s through a 1 s ttl: every compaction
    meets entries a fraction of a step from their expiry on both sides,
    and entries keep dying between compactions."""
    cache, oracle = SeenCache(ttl=1.0), OrderedSeenCache(ttl=1.0)
    ids = [f"m{k}" for k in range(600)]
    peak_live = 0
    for k, msg_id in enumerate(ids):
        now = k / 256
        assert not cache.witness(msg_id, now)
        oracle.witness(msg_id, now)
        assert len(cache) == len(oracle)
        assert [i in cache for i in ids] == [i in oracle for i in ids]
        peak_live = max(peak_live, len(oracle))
        _assert_bounded(cache, len(oracle), peak_live)


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


def test_roll_through_keeps_len_on_the_live_window_at_bounded_cost():
    """25 000 IDs through a 50-tick ttl, each witnessed three times."""
    ttl, total = 50.0, 25_000
    cache = SeenCache(ttl=ttl)
    rebuilt = 0  # entries read by compactions, the only non-O(1) work
    for i in range(total):
        for offset in (0.0, 0.25, 0.5):  # a first sighting, two duplicates
            held = cache._expiry
            assert cache.witness(f"m{i}", float(i) + offset) == (offset > 0)
            if cache._expiry is not held:
                rebuilt += len(held)
        # Live: IDs whose last witness (j + 0.5) + ttl is still ahead.
        assert len(cache) == min(i + 1, int(ttl))
        # At most 51 are live at a witness (the oldest dies at i + 0.5).
        assert len(cache._expiry) <= 2 * 51
    # Each compaction reads 103 entries and keeps the 51 live ones, so
    # it comes once per 52 new IDs: about two reads per ID.
    assert rebuilt <= 2 * total, rebuilt
    cache.witness("idle", now=10.0 * total)  # everything expires at once
    assert len(cache) == 1
