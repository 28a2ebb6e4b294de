"""The per-peer score memo against a fresh computation.

``PeerScoreTracker.score`` memoises one value per peer. A score event
drops only its own peer's entry (plus an IP group's on a colocation
change), an entry with no in-mesh topic holds for any ``now``, and an
entry with no non-zero decaying counter holds across decay ticks. The
risk is an entry that outlives a change to one of its inputs, so after
every step of a random event sequence every peer's memoised score must
equal the score recomputed with the memo cleared, and every peer
scoring below zero must be in the suspect set.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossipsub.score import (
    _NO_SUSPECTS,
    PeerScoreParams,
    PeerScoreTracker,
    TopicScoreParams,
)
from sweep_oracle import clear_memos

PEERS = tuple(f"p{i}" for i in range(6))
PLAIN, OTHER, STRICT = "plain", "other", "strict"
TOPICS = (PLAIN, OTHER, STRICT)
IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
#: P3 / P3b armed on one topic, with an activation short enough that a
#: silent mesh member goes negative within a few steps.
PARAMS = PeerScoreParams(
    topic_params={
        STRICT: TopicScoreParams(
            mesh_message_deliveries_weight=-1.0,
            mesh_message_deliveries_threshold=2.0,
            mesh_message_deliveries_activation=1.0,
            mesh_failure_penalty_weight=-1.0,
        )
    }
)

PEER = st.sampled_from(PEERS)
TOPIC = st.sampled_from(TOPICS)
STEPS = st.one_of(
    st.tuples(st.just("graft"), PEER, TOPIC),
    st.tuples(st.just("prune"), PEER, TOPIC),
    st.tuples(st.just("first_message"), PEER, TOPIC),
    st.tuples(st.just("duplicate_message"), PEER, TOPIC),
    st.tuples(st.just("duplicate_message"), PEER, TOPIC),
    st.tuples(st.just("reject_message"), PEER, TOPIC),
    st.tuples(
        st.just("behaviour_penalty"), PEER, st.sampled_from((0.5, 1.0, 3.0))
    ),
    st.tuples(
        st.just("set_app_score"), PEER, st.sampled_from((-30.0, -1.0, 0.0, 2.5))
    ),
    st.tuples(st.just("set_ip"), PEER, st.sampled_from(IPS)),
    st.tuples(st.just("set_ip"), PEER, st.sampled_from(IPS)),
    st.tuples(st.just("decay"), st.none(), st.none()),
    st.tuples(st.just("decay"), st.none(), st.none()),
    st.tuples(st.just("advance"), st.none(), st.sampled_from((0.0, 0.5, 4.0))),
)


def _fresh(tracker, now):
    """Every peer's score recomputed with the memo cleared. The memo
    and the suspect set are put back afterwards, so the tracker goes on
    from its own state (recomputing only materialises counters, which
    changes no value)."""
    memo = {peer: stats.memo for peer, stats in tracker._peers.items()}
    suspects = set(tracker._suspects)
    clear_memos(tracker)
    fresh = [tracker.score(peer, now) for peer in PEERS]
    for peer, stats in tracker._peers.items():
        stats.memo = memo[peer]
    tracker._suspects = suspects or _NO_SUSPECTS
    return fresh


def _apply(tracker, step, now):
    name, peer, arg = step
    if name == "decay":
        tracker.decay()
    elif name == "advance":
        now += arg
    elif name in ("graft", "prune"):
        getattr(tracker, name)(peer, arg, now)
    else:
        getattr(tracker, name)(peer, arg)
    return now


@settings(max_examples=250, deadline=None)
@given(steps=st.lists(STEPS, min_size=30, max_size=80))
def test_memoised_score_equals_a_fresh_computation(steps):
    tracker = PeerScoreTracker(PARAMS)
    now = 0.0
    for step in steps:
        now = _apply(tracker, step, now)
        fresh = _fresh(tracker, now)
        negative = {p for p, value in zip(PEERS, fresh) if value < 0}
        assert negative <= tracker.suspects(), step
        # Every score read through the tracker itself: the next step
        # starts from a warm memo, so each step's invalidation is what
        # is tested.
        assert [tracker.score(p, now) for p in PEERS] == fresh, step


def test_joining_an_ip_group_moves_every_member_s_score():
    tracker = PeerScoreTracker(PARAMS)
    tracker.set_ip("p0", IPS[0])
    tracker.set_ip("p1", IPS[0])
    before = tracker.score("p0")  # two colocated: excess 1
    tracker.set_ip("p2", IPS[0])  # p0's inputs change with no p0 event
    assert tracker.score("p0") == before * 4 == _fresh(tracker, 0.0)[0]
    tracker.set_ip("p2", IPS[1])  # and back, by re-assignment
    assert tracker.score("p0") == before
    tracker.set_ip("p1", IPS[1])  # the group shrinks to one
    assert tracker.score("p0") == 0.0 == _fresh(tracker, 0.0)[0]


def test_an_in_mesh_duplicate_narrows_a_strict_deficit():
    tracker = PeerScoreTracker(PARAMS)
    tracker.graft("p0", STRICT, 0.0)
    deficit_of_two = tracker.score("p0", 4.0)
    tracker.duplicate_message("p0", STRICT)  # one of the two expected
    narrowed = tracker.score("p0", 4.0)
    assert narrowed == _fresh(tracker, 4.0)[0] > deficit_of_two


def test_an_idle_entry_outlives_decay_ticks_and_clock_reads():
    tracker = PeerScoreTracker(PARAMS)
    tracker.set_app_score("p0", 2.5)  # no counter, no mesh
    tracker.graft("p1", PLAIN, 0.0)  # in a mesh: depends on now
    tracker.first_message("p2", PLAIN)  # a decaying counter
    values = [tracker.score(p, 1.0) for p in ("p0", "p1", "p2")]
    cached = {peer: stats.memo for peer, stats in tracker._peers.items()}
    tracker.decay()
    assert tracker.score("p0", 9.0) == values[0]
    assert tracker._peers["p0"].memo is cached["p0"]  # a memo hit
    assert tracker.score("p1", 1.0) == values[1]
    assert tracker._peers["p1"].memo is cached["p1"]
    assert tracker.score("p1", 2.0) > values[1]  # P1 grew
    assert tracker.score("p2", 1.0) == values[2] * 0.5  # P2 decayed
