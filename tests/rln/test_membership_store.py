"""Shared membership store: equivalence, divergent events, isolation.

The shared store is only allowed to exist because it is *observably
identical* to independent replicas: same roots, same root windows, same
verification decisions, under any interleaving of registrations,
slashes and replication. These tests drive shared replicas and
independent ones on the flat oracle tree (``FlatReplica``) through the
same random event scripts and compare everything a router or publisher
could see. A replica offered an event other than the recorded one is
off the log: it raises :class:`SyncError` and nothing changes.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import Fr
from repro.crypto.hashing import hash_call_count
from repro.crypto.keys import IdentityCommitment, MembershipKeyPair
from repro.crypto.merkle_forest import CanonicalShardedTree
from repro.crypto.merkle_shared import SharedMerkleView
from repro.errors import MerkleError, SyncError
from repro.rln.membership import LocalGroup, MembershipStore

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "crypto"))
from flat_tree_oracle import FlatReplica, FlatTreeOracle  # noqa: E402

DEPTH = 8


def _commitments(n: int, seed: int = 7):
    rng = random.Random(seed)
    return [MembershipKeyPair.generate(rng).commitment for _ in range(n)]


def _assert_replicas_equal(shared: LocalGroup, independent: LocalGroup):
    assert shared.root == independent.root
    assert shared.recent_roots() == independent.recent_roots()
    assert shared.member_count == independent.member_count
    for probe in independent.recent_roots():
        assert shared.is_acceptable_root(probe) == (
            independent.is_acceptable_root(probe)
        )


def _canonical_state(canonical):
    return (
        canonical.state_digest(),
        [canonical.root_at(v) for v in range(canonical.version + 1)],
        canonical.events_deduped,
    )


def _replica_state(group: LocalGroup):
    return (
        group.tree.version,
        group.root,
        group.recent_roots(),
        group.member_count,
        group.applied_events,
    )


#: One action of the random script. ("reg", c) registers commitment #c,
#: ("slash", i) removes an assigned slot, ("replicate", r) re-bootstraps
#: replica r from replica 0, ("diverge", v) offers a replica lagging at
#: a version drawn from v an event the log did not record there.
actions = st.lists(
    st.one_of(
        st.tuples(st.just("reg"), st.integers(0, 39)),
        st.tuples(st.just("slash"), st.integers(0, 39)),
        st.tuples(st.just("replicate"), st.integers(1, 3)),
        st.tuples(st.just("diverge"), st.integers(0, 39)),
    ),
    min_size=1,
    max_size=40,
)


class TestSharedVsIndependentEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(actions=actions, seed=st.integers(0, 2**16))
    def test_random_interleavings(self, actions, seed):
        commitments = _commitments(40, seed=seed)
        store = MembershipStore(depth=DEPTH, root_window=4)
        shared = [store.local_group() for _ in range(4)]
        independent = [FlatReplica(DEPTH, root_window=4) for _ in range(4)]
        canonical = store.canonical()
        events = 0
        next_commit = 0
        for kind, arg in actions:
            if kind == "reg":
                if events >= (1 << DEPTH) or next_commit >= len(commitments):
                    continue
                commitment = commitments[next_commit]
                next_commit += 1
                for group in shared + independent:
                    group.apply_registration(commitment, events)
                events += 1
            elif kind == "slash":
                count = independent[0].member_count
                if count == 0:
                    continue
                index = arg % count
                for group in shared + independent:
                    group.apply_removal(index, events)
                events += 1
            elif kind == "replicate":
                shared[arg].replicate_from(shared[0])
                independent[arg].replicate_from(independent[0])
            elif events:  # diverge: no log records 0xBEEF + arg
                version = arg % events
                lagging = LocalGroup(
                    DEPTH, 4, tree=SharedMerkleView(canonical, version)
                )
                before = _replica_state(lagging), _canonical_state(canonical)
                with pytest.raises(SyncError):
                    if arg % 2 and lagging.member_count:
                        # Every recorded slash writes zero.
                        lagging.tree.synced_update(
                            arg % lagging.member_count, Fr(0xBEEF + arg)
                        )
                    else:
                        lagging.apply_registration(
                            IdentityCommitment(Fr(0xBEEF + arg)), 0
                        )
                after = _replica_state(lagging), _canonical_state(canonical)
                assert after == before
            for s, i in zip(shared, independent):
                _assert_replicas_equal(s, i)

        # Proofs agree wherever slots are assigned.
        for s, i in zip(shared, independent):
            for index in range(i.member_count):
                ps, pi = s.merkle_proof(index), i.merkle_proof(index)
                assert ps.siblings == pi.siblings
                assert ps.path_bits == pi.path_bits
                assert ps.verify(s.root)

    @settings(max_examples=20, deadline=None)
    @given(
        leaves=st.lists(
            st.integers(min_value=1, max_value=2**64), min_size=1, max_size=20
        ),
        sub_depth=st.integers(min_value=1, max_value=DEPTH),
    )
    def test_view_matches_merkle_tree_op_for_op(self, leaves, sub_depth):
        canonical = CanonicalShardedTree(DEPTH, sub_depth)
        view = SharedMerkleView(canonical)
        oracle = FlatTreeOracle(DEPTH)
        for value in leaves:
            assert view.synced_insert(Fr(value)) == oracle.apply(
                ("insert", value)
            )
            assert int(view.root) == oracle.root_at(oracle.version)
            assert view.find_leaf(Fr(value)) == oracle.find_leaf_at(
                value, oracle.version
            )
        view.synced_update(0, Fr.zero())
        oracle.apply(("set", 0, 0))
        assert canonical.state_digest() == oracle.state_digest()
        # A view left behind at any version still reads that version.
        for version in range(oracle.version + 1):
            lagging = SharedMerkleView(canonical, version)
            assert int(lagging.root) == oracle.root_at(version)
            assert [int(leaf) for leaf in lagging.leaves()] == [
                oracle.node_at(0, index, version)
                for index in range(oracle.leaf_count_at(version))
            ]


class TestDedupAccounting:
    def test_later_replicas_apply_events_without_hashing(self):
        commitments = _commitments(6)
        store = MembershipStore(depth=DEPTH)
        groups = [store.local_group() for _ in range(10)]
        for event, commitment in enumerate(commitments):
            groups[0].apply_registration(commitment, event)
        before = hash_call_count()
        for group in groups[1:]:
            for event, commitment in enumerate(commitments):
                group.apply_registration(commitment, event)
        assert hash_call_count() == before  # pure pointer advances
        stats = store.stats()
        assert stats["events"] == len(commitments)
        assert stats["events_deduped"] == 9 * len(commitments)

    def test_replicate_from_shared_view_is_hash_free(self):
        commitments = _commitments(5)
        store = MembershipStore(depth=DEPTH)
        reference = store.local_group()
        for event, commitment in enumerate(commitments):
            reference.apply_registration(commitment, event)
        newcomer = store.local_group()
        before = hash_call_count()
        newcomer.replicate_from(reference)
        assert hash_call_count() == before
        assert newcomer.root == reference.root


class TestReplicateFrom:
    def test_replicate_from_another_domain_is_refused(self):
        store = MembershipStore(depth=DEPTH)
        chat, market = store.local_group("a"), store.local_group("b")
        market.apply_registration(_commitments(1)[0], 0)
        before = _replica_state(chat)
        with pytest.raises(SyncError, match="different canonical tree"):
            chat.replicate_from(market)
        assert _replica_state(chat) == before
        assert chat.tree.canonical is store.canonical("a")

    def test_private_replicas_never_share_a_tree(self):
        reference = LocalGroup(depth=DEPTH, root_window=4)
        reference.apply_registration(_commitments(1)[0], 0)
        replica = LocalGroup(depth=DEPTH, root_window=4)
        with pytest.raises(SyncError):
            replica.replicate_from(reference)
        assert replica.member_count == 0
        assert replica.tree.canonical is not reference.tree.canonical


class TestDivergentEvents:
    """A replica offered an event other than the one the log recorded
    at its version raises SyncError; it, its siblings and the canonical
    tree are left exactly as they were."""

    def _populated(self, replicas: int = 3):
        commitments = _commitments(8)
        store = MembershipStore(depth=DEPTH)
        groups = [store.local_group() for _ in range(replicas)]
        for event, commitment in enumerate(commitments):
            for group in groups:
                group.apply_registration(commitment, event)
        return store, groups, commitments

    def _refused(self, store, late: LocalGroup, groups, offer) -> str:
        canonical = store.canonical()
        before = (
            _replica_state(late),
            [_replica_state(g) for g in groups],
            _canonical_state(canonical),
        )
        with pytest.raises(SyncError) as refused:
            offer()
        assert (
            _replica_state(late),
            [_replica_state(g) for g in groups],
            _canonical_state(canonical),
        ) == before
        return str(refused.value)

    def test_divergent_insert(self):
        store, groups, commitments = self._populated()
        late = store.local_group()
        for event, commitment in enumerate(commitments[:4]):
            late.apply_registration(commitment, event)
        rogue = _commitments(1, seed=99)[0]
        message = self._refused(
            store, late, groups, lambda: late.apply_registration(rogue, 4)
        )
        assert "version 4" in message
        assert repr(("insert", int(commitments[4].element))) in message
        assert repr(("insert", int(rogue.element))) in message
        # Still on the log: the recorded event applies without hashing.
        before = hash_call_count()
        late.apply_registration(commitments[4], 4)
        assert hash_call_count() == before

    def test_divergent_set(self):
        store, groups, _ = self._populated()
        late = store.local_group()
        late.replicate_from(groups[0])
        groups[0].apply_removal(2, 8)  # the log records ("set", 2, 0)
        message = self._refused(
            store, late, groups[1:], lambda: late.apply_removal(3, 8)
        )
        assert "version 8" in message and "('set', 3, 0)" in message
        late.apply_removal(2, 8)
        assert late.root == groups[0].root

    def test_divergent_batch_moves_nothing(self):
        store = MembershipStore(depth=DEPTH, sub_depth=2)
        commitments = _commitments(10, seed=23)
        first = store.local_group()
        first.apply_registration_batch(commitments[:8], event_index=0)
        late = store.local_group()
        # Five values match the recorded batch before the sixth differs:
        # none of them may advance the view or count as deduped.
        offered = commitments[:5] + commitments[9:10]
        message = self._refused(
            store, late, [first],
            lambda: late.apply_registration_batch(offered, 0),
        )
        assert "version 5" in message
        third = store.local_group()
        third.apply_registration_batch(commitments[:8], event_index=0)
        _assert_replicas_equal(third, first)

    def test_lagging_view_keeps_its_version(self):
        store, groups, commitments = self._populated()
        laggard = store.local_group()
        for event, commitment in enumerate(commitments[:3]):
            laggard.apply_registration(commitment, event)
        frozen_proof = laggard.merkle_proof(1)
        extra = _commitments(2, seed=5)
        for event, commitment in enumerate(extra, start=8):
            for group in groups:
                group.apply_registration(commitment, event)
        self._refused(
            store, laggard, groups,
            lambda: laggard.apply_registration(extra[0], 3),
        )
        assert laggard.member_count == 3
        assert laggard.merkle_proof(1) == frozen_proof
        assert frozen_proof.verify(laggard.root)
        for event, commitment in enumerate(
            commitments[3:] + extra, start=3
        ):
            laggard.apply_registration(commitment, event)
        assert _replica_state(laggard)[1:] == _replica_state(groups[0])[1:]

    def test_siblings_keep_sharing_after_a_refusal(self):
        store, groups, _ = self._populated()
        late = store.local_group()
        with pytest.raises(SyncError):
            late.apply_registration(_commitments(1, seed=99)[0], 0)
        extra = _commitments(3, seed=99)
        before = hash_call_count()
        for event, commitment in enumerate(extra, start=8):
            for group in groups[1:]:
                group.apply_registration(commitment, event)
        # Two replicas, three events: only the first application of
        # each event hashes (depth each), the second replica dedups.
        assert hash_call_count() - before == 3 * DEPTH
        assert groups[1].root == groups[2].root

    def test_view_bounds_checks(self):
        store = MembershipStore(depth=2)
        group = store.local_group()
        commitments = _commitments(4)
        for event, commitment in enumerate(commitments):
            group.apply_registration(commitment, event)
        with pytest.raises(MerkleError):
            group.tree.synced_insert(Fr(1))  # full
        with pytest.raises(MerkleError):
            group.tree.synced_update(9, Fr(1))


class TestLaggingViews:
    def test_lagging_view_reads_historical_state(self):
        commitments = _commitments(10)
        store = MembershipStore(depth=DEPTH)
        leader = store.local_group()
        laggard = store.local_group()
        for event, commitment in enumerate(commitments[:4]):
            leader.apply_registration(commitment, event)
            laggard.apply_registration(commitment, event)
        frozen_root = laggard.root
        frozen_proof = laggard.merkle_proof(1)
        for event, commitment in enumerate(commitments[4:], start=4):
            leader.apply_registration(commitment, event)
        # The laggard still sees (and proves against) version 4.
        assert laggard.root == frozen_root
        assert laggard.merkle_proof(1).siblings == frozen_proof.siblings
        assert laggard.member_count == 4
        assert laggard.tree.find_leaf(commitments[6].element) is None
        assert leader.tree.find_leaf(commitments[6].element) == 6
        # Catching up replays the recorded events without hashing.
        before = hash_call_count()
        for event, commitment in enumerate(commitments[4:], start=4):
            laggard.apply_registration(commitment, event)
        assert hash_call_count() == before
        assert laggard.root == leader.root

    def test_find_leaf_is_versioned_after_slash(self):
        commitments = _commitments(4)
        store = MembershipStore(depth=DEPTH)
        leader = store.local_group()
        laggard = store.local_group()
        for event, commitment in enumerate(commitments):
            leader.apply_registration(commitment, event)
            laggard.apply_registration(commitment, event)
        leader.apply_removal(2, 4)
        # Laggard has not applied the slash yet: still sees the member.
        assert laggard.tree.find_leaf(commitments[2].element) == 2
        assert leader.tree.find_leaf(commitments[2].element) is None
        laggard.apply_removal(2, 4)
        assert laggard.tree.find_leaf(commitments[2].element) is None


class TestStoreDomains:
    def test_domains_are_isolated(self):
        store = MembershipStore(depth=DEPTH)
        chat = store.local_group("chat")
        market = store.local_group("market")
        commitment = _commitments(1)[0]
        chat.apply_registration(commitment, 0)
        assert market.member_count == 0
        assert store.canonical("chat") is not store.canonical("market")
        assert store.domains == ["chat", "market"]


def _old_window(roots, size):
    """The per-replica window the shared one replaced: a repeated root
    moves to the end, the oldest drop out past ``size``."""
    recent = {}
    for root in roots:
        recent.pop(root, None)
        recent[root] = None
        while len(recent) > size:
            del recent[next(iter(recent))]
    return list(recent)


class TestSharedRootWindow:
    """Replicas hold one window object per (start version, history),
    and each still answers exactly like a window of its own."""

    @settings(max_examples=60, deadline=None)
    @given(
        log=st.lists(st.integers(0, 5), min_size=1, max_size=14),
        starts=st.lists(st.integers(0, 14), min_size=1, max_size=5),
        size=st.integers(1, 4),
    )
    def test_windows_are_shared_and_exact(self, log, starts, size):
        # A non-negative entry registers the next commitment; a slash
        # of slot ``i % count`` zeroes it, and slashing one slot twice
        # (or the newest slot) repeats an earlier root.
        commitments = iter(_commitments(len(log)))
        store = MembershipStore(depth=DEPTH, root_window=size)
        writer = store.local_group()
        events = []
        for i, entry in enumerate(log):
            if entry % 3 or not writer.member_count:
                writer.apply_registration(next(commitments), i)
                events.append(("reg", writer.member_count - 1))
            else:
                slot = entry % writer.member_count
                writer.apply_removal(slot, i)
                events.append(("slash", slot))
        canonical = store.canonical()
        # Every replica exists before any of them catches up, as every
        # peer of a deployment does before its first sync.
        replicas = {}
        for start in starts:
            start = min(start, len(events))
            group = LocalGroup(
                DEPTH, size, tree=SharedMerkleView(canonical, start)
            )
            group.applied_events = start
            replicas.setdefault(start, []).append(group)
        def roots_from(start):
            return [Fr(canonical.root_at(v)) for v in range(start, len(events) + 1)]

        for start, groups in sorted(replicas.items()):
            expected = _old_window(roots_from(start), size)
            for group in groups:
                for i, (kind, slot) in enumerate(events[start:], start):
                    if kind == "reg":
                        leaf = Fr(canonical.event_at(i)[1])
                        group.apply_registration(IdentityCommitment(leaf), i)
                    else:
                        group.apply_removal(slot, i)
                assert group.recent_roots() == expected
                for probe in expected:
                    assert group.is_acceptable_root(probe)
            assert len({id(group._window) for group in groups}) == 1
        assert writer.recent_roots() == _old_window(roots_from(0), size)

    def test_replicate_from_shares_the_window(self):
        store = MembershipStore(depth=DEPTH, root_window=4)
        reference = store.local_group()
        for event, commitment in enumerate(_commitments(3)):
            reference.apply_registration(commitment, event)
        newcomer = store.local_group()
        newcomer.replicate_from(reference)
        assert newcomer._window is reference._window
        newcomer.apply_registration(_commitments(4)[3], 3)
        reference.apply_registration(_commitments(4)[3], 3)
        assert newcomer._window is reference._window
