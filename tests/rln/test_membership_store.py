"""Shared membership store: equivalence, forks, isolation.

The copy-on-write store is only allowed to exist because it is
*observably identical* to independent replicas: same roots, same root
windows, same verification decisions, under any interleaving of
registrations, slashes, replication and forced forks. These tests
drive shared and independent replica populations through the same
random event scripts and compare everything a router or publisher
could see.
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
from repro.crypto.keys import MembershipKeyPair
from repro.crypto.merkle_forest import CanonicalShardedTree
from repro.crypto.merkle_shared import SharedMerkleView
from repro.errors import MerkleError
from repro.rln.membership import LocalGroup, MembershipStore

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "crypto"))
from flat_tree_oracle import FlatTreeOracle  # noqa: E402

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


#: One action of the random script. ("reg", c) registers commitment #c,
#: ("slash", i) removes an assigned slot, ("replicate", r) re-bootstraps
#: replica r from replica 0, ("fork", r) mutates replica r's tree
#: out-of-band (the adversarial-desync move).
actions = st.lists(
    st.one_of(
        st.tuples(st.just("reg"), st.integers(0, 39)),
        st.tuples(st.just("slash"), st.integers(0, 39)),
        st.tuples(st.just("replicate"), st.integers(1, 3)),
        st.tuples(st.just("fork"), st.integers(1, 3)),
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
        independent = [
            LocalGroup(depth=DEPTH, root_window=4) for _ in range(4)
        ]
        forked = set()
        events = 0
        next_commit = 0
        for kind, arg in actions:
            if kind == "reg":
                if events >= (1 << DEPTH) or next_commit >= len(commitments):
                    continue
                commitment = commitments[next_commit]
                next_commit += 1
                for group in shared + independent:
                    if id(group) in forked:
                        continue
                    group.apply_registration(commitment, events)
                events += 1
            elif kind == "slash":
                count = independent[0].member_count
                if count == 0:
                    continue
                index = arg % count
                for group in shared + independent:
                    if id(group) in forked:
                        continue
                    group.apply_removal(index, events)
                events += 1
            elif kind == "replicate":
                shared[arg].replicate_from(shared[0])
                independent[arg].replicate_from(independent[0])
                forked.discard(id(shared[arg]))
                forked.discard(id(independent[arg]))
            else:  # fork: same out-of-band mutation on both populations
                count = independent[arg].member_count
                if count == 0:
                    continue
                shared[arg].tree.update(arg % count, Fr(0xBEEF + arg))
                independent[arg].tree.update(arg % count, Fr(0xBEEF + arg))
                forked.add(id(shared[arg]))
                forked.add(id(independent[arg]))
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
        assert stats["forks"] == 0

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


class TestForkIsolation:
    def _populated(self, replicas: int = 3):
        commitments = _commitments(8)
        store = MembershipStore(depth=DEPTH)
        groups = [store.local_group() for _ in range(replicas)]
        for event, commitment in enumerate(commitments):
            for group in groups:
                group.apply_registration(commitment, event)
        return store, groups, commitments

    def test_forked_mutation_never_leaks(self):
        store, groups, commitments = self._populated()
        canonical = store.canonical()
        root_before = Fr(canonical.root_at(canonical.version))
        sibling_roots = [g.root for g in groups[1:]]

        rogue = groups[0]
        rogue.tree.update(2, Fr(0xDEAD))
        rogue.tree.insert(Fr(0xFEED))
        rogue.tree.delete(0)

        assert rogue.tree.is_forked
        assert Fr(canonical.root_at(canonical.version)) == root_before
        assert [g.root for g in groups[1:]] == sibling_roots
        for sibling in groups[1:]:
            assert sibling.tree.leaf(2) == commitments[2].element
            assert not sibling.tree.is_forked

    def test_fork_then_siblings_keep_sharing(self):
        store, groups, _ = self._populated()
        groups[0].tree.update(1, Fr(123))
        extra = _commitments(3, seed=99)
        before = hash_call_count()
        for event, commitment in enumerate(extra, start=8):
            for group in groups[1:]:
                group.apply_registration(commitment, event)
        # Two replicas, three events: only the first application of
        # each event hashes (depth each), the second replica dedups.
        assert hash_call_count() - before == 3 * DEPTH
        assert groups[1].root == groups[2].root

    def test_fork_is_frozen_at_fork_version(self):
        store, groups, commitments = self._populated()
        rogue = groups[0]
        rogue.tree.update(2, Fr(0xDEAD))
        snapshot_root = rogue.root
        # Canonical marches on; the fork must not see those events.
        extra = _commitments(2, seed=5)
        for event, commitment in enumerate(extra, start=8):
            for group in groups[1:]:
                group.apply_registration(commitment, event)
        assert rogue.root == snapshot_root
        assert rogue.member_count == len(commitments)
        proof = rogue.tree.proof(2)
        assert proof.leaf == Fr(0xDEAD)
        assert proof.verify(rogue.root)

    def test_clone_of_fork_is_independent(self):
        store, groups, _ = self._populated()
        rogue = groups[0]
        rogue.tree.update(2, Fr(0xDEAD))
        twin = rogue.tree.clone()
        rogue.tree.update(3, Fr(0xBEEF))
        assert twin.leaf(3) != Fr(0xBEEF)
        twin.update(4, Fr(0xCAFE))
        assert rogue.tree.leaf(4) != Fr(0xCAFE)

    def test_forked_view_bounds_checks(self):
        store = MembershipStore(depth=2)
        group = store.local_group()
        commitments = _commitments(4)
        for event, commitment in enumerate(commitments):
            group.apply_registration(commitment, event)
        with pytest.raises(MerkleError):
            group.tree.insert(Fr(1))  # full even on the fork path
        with pytest.raises(MerkleError):
            group.tree.update(9, Fr(1))

    def test_out_of_band_insert_forks_even_at_head(self):
        store = MembershipStore(depth=DEPTH)
        groups = [store.local_group() for _ in range(2)]
        groups[0].apply_registration(_commitments(1)[0], 0)
        groups[1].apply_registration(_commitments(1)[0], 0)
        canonical_version = store.canonical().version
        groups[0].tree.insert(Fr(42))
        assert groups[0].tree.is_forked
        # The rogue insert must not have become a canonical event.
        assert store.canonical().version == canonical_version
        assert not groups[1].tree.is_forked


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
