"""Tree-of-trees registry: root-equivalence with a plain tree.

The sharded canonical tree exists only because it is *provably the
same tree* as a plain Merkle tree at matched capacity: every root,
every historical root, every proof and every leaf lookup must agree
under any interleaving of registrations and slashes — including the
compacted genesis-batch path and the one-sub-tree shape
(``sub_depth == depth``) a store without a sub-tree depth builds. These
tests drive sharded registries, independent replicas and the
per-version oracle (``flat_tree_oracle.py``) through identical event
scripts and compare everything.
"""

from __future__ import annotations

import random

import pytest
from flat_tree_oracle import FlatReplica, FlatTreeOracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import Fr
from repro.crypto.hashing import hash_call_count
from repro.crypto.keys import MembershipKeyPair
from repro.crypto.merkle import MerkleProof
from repro.crypto.merkle_forest import CanonicalShardedTree, TwoLevelProof
from repro.crypto.merkle_shared import SharedMerkleView
from repro.crypto.slot_index import PackedFieldList
from repro.errors import MerkleError, SyncError
from repro.rln.membership import LocalGroup, MembershipStore

DEPTH = 6


def _commitments(n: int, seed: int = 3):
    rng = random.Random(seed)
    return [MembershipKeyPair.generate(rng).commitment for _ in range(n)]


def _triple(sub_depth: int, depth: int = DEPTH):
    """(sharded replica, one-sub-tree replica, flat-oracle replica)."""
    sharded = MembershipStore(depth=depth, sub_depth=sub_depth)
    flat = MembershipStore(depth=depth)
    return (
        sharded.local_group(),
        flat.local_group(),
        FlatReplica(depth),
    )


def _assert_groups_equal(a: LocalGroup, b: LocalGroup):
    assert a.root == b.root
    assert a.recent_roots() == b.recent_roots()
    assert a.member_count == b.member_count


class TestShardedFlatEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        actions=st.lists(
            st.sampled_from(["register", "slash"]), min_size=1, max_size=40
        ),
        sub_depth=st.integers(min_value=1, max_value=DEPTH),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_interleavings(self, actions, sub_depth, seed):
        rng = random.Random(seed)
        sharded, flat, independent = _triple(sub_depth)
        pool = _commitments(40, seed=11)
        members = []  # (commitment, index) still in the tree
        event = 0
        for action in actions:
            if action == "register" and pool:
                commitment = pool.pop()
                index = sharded.apply_registration(commitment, event)
                assert flat.apply_registration(commitment, event) == index
                assert (
                    independent.apply_registration(commitment, event)
                    == index
                )
                members.append((commitment, index))
            elif action == "slash" and members:
                _, index = members.pop(rng.randrange(len(members)))
                sharded.apply_removal(index, event)
                flat.apply_removal(index, event)
                independent.apply_removal(index, event)
            else:
                continue
            event += 1
            _assert_groups_equal(sharded, flat)
            _assert_groups_equal(sharded, independent)
        for commitment, index in members:
            assert sharded.index_of(commitment) == index
            proof = sharded.merkle_proof(index)
            assert proof.verify(flat.root)
            assert proof.siblings == flat.merkle_proof(index).siblings
            if sub_depth == DEPTH:
                with pytest.raises(MerkleError):
                    sharded.two_level_proof(index)
                continue
            two_level = sharded.two_level_proof(index)
            assert two_level.verify(sharded.root)
            assert two_level.flatten().siblings == proof.siblings

    def test_node_level_equality_with_flat_tree(self):
        """Not just the root: every node matches at every version, with
        a top tree (sub_depth 2) and as one sub-tree (sub_depth 5)."""
        flat = FlatTreeOracle(5)
        events = [("insert", value) for value in range(1, 23)]
        events.append(("set", 6, 0))
        for event in events:
            flat.apply(event)
        for sub_depth in (2, 5):
            sharded = CanonicalShardedTree(5, sub_depth)
            for event in events:
                sharded.apply(event)
            for version in range(sharded.version + 1):
                for height in range(0, 6):
                    for index in range(2 ** (5 - height)):
                        assert sharded.node_at(height, index, version) == (
                            flat.node_at(height, index, version)
                        ), (sub_depth, version, height, index)

    def test_sub_depth_validation(self):
        assert CanonicalShardedTree(4, 4).top_depth == 0
        with pytest.raises(MerkleError):
            CanonicalShardedTree(4, 0)
        with pytest.raises(MerkleError):
            CanonicalShardedTree(4, 5)
        with pytest.raises(ValueError):
            MembershipStore(depth=4, sub_depth=5)
        with pytest.raises(ValueError):
            MembershipStore(depth=4, sub_depth=0)

    def test_refused_write_leaves_the_tree_unchanged(self):
        tree = CanonicalShardedTree(4, 2)
        tree.apply(("insert", 7))

        def snapshot():
            journal = sum(len(entries) for entries in tree._journal.values())
            return (
                tree.state_digest(),
                tree.materialized_subtrees,
                tree.storage_bytes(),
                journal,
            )

        before = snapshot()
        with pytest.raises(MerkleError):
            tree.apply(("set", 9, 5))  # sub-tree 2 holds no leaf 8
        assert snapshot() == before
        assert tree.apply(("insert", 8)) == 1


class TestGenesisBatch:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        window=st.integers(min_value=1, max_value=12),
        sub_depth=st.integers(min_value=1, max_value=DEPTH),
    )
    def test_batch_matches_one_by_one(self, n, window, sub_depth):
        commitments = _commitments(n, seed=n)
        batch = MembershipStore(
            depth=DEPTH, root_window=window, sub_depth=sub_depth
        ).local_group()
        serial = MembershipStore(
            depth=DEPTH, root_window=window, sub_depth=sub_depth
        ).local_group()
        flat = MembershipStore(
            depth=DEPTH, root_window=window
        ).local_group()
        batch.apply_registration_batch(commitments, event_index=0)
        for event, commitment in enumerate(commitments):
            serial.apply_registration(commitment, event)
            flat.apply_registration(commitment, event)
        # The compacted batch must be observationally identical: same
        # root AND the same acceptance window of historical roots.
        assert batch.root == serial.root == flat.root
        assert batch.recent_roots() == serial.recent_roots()
        assert batch.recent_roots() == flat.recent_roots()
        assert batch.member_count == n

    def test_genesis_batch_hashes_o1_per_leaf(self):
        n = 2**DEPTH
        values = [c.element._value for c in _commitments(n, seed=5)]
        tree = CanonicalShardedTree(DEPTH, 3)
        before = hash_call_count()
        tree.apply_batch(values, roots_tail=1)
        spent = hash_call_count() - before
        # Bottom-up fold: ~1 hash per leaf (one per interior node),
        # against DEPTH per leaf on the journaled path.
        assert spent < 2 * n
        assert spent < DEPTH * n / 2

    def test_compacted_versions_are_unreadable(self):
        tree = CanonicalShardedTree(DEPTH, 2)
        tree.apply_batch(list(range(1, 41)), roots_tail=4)
        gv = tree.genesis_version
        assert gv == 36
        assert tree.root_at(0) == tree.node_at(DEPTH, 0, 0)
        for version in (1, gv // 2, gv - 1):
            with pytest.raises(MerkleError):
                tree.root_at(version)
            with pytest.raises(MerkleError):
                tree.find_leaf_at(1, version)
        # Versions from the genesis point onward read normally.
        for version in range(gv, tree.version + 1):
            assert tree.leaf_count_at(version) == version
        # Events before the genesis point reconstruct as inserts.
        for version in range(gv):
            kind, value = tree.event_at(version)
            assert kind == "insert"
            assert value == tree.node_at(0, version, tree.version)

    def test_batch_after_genesis_takes_journaled_path(self):
        tree = CanonicalShardedTree(DEPTH, 2)
        tree.apply_batch(list(range(1, 11)), roots_tail=2)
        gv = tree.genesis_version
        tree.apply_batch(list(range(11, 21)), roots_tail=2)
        # Second batch is post-genesis: every version is journaled.
        assert tree.genesis_version == gv
        for version in range(gv, tree.version + 1):
            tree.root_at(version)

    def test_replica_dedups_genesis_batch(self):
        store = MembershipStore(depth=DEPTH, sub_depth=2)
        commitments = _commitments(30, seed=9)
        first = store.local_group()
        second = store.local_group()
        first.apply_registration_batch(commitments, event_index=0)
        before = hash_call_count()
        second.apply_registration_batch(commitments, event_index=0)
        assert hash_call_count() == before  # pure pointer advance
        _assert_groups_equal(first, second)
        assert store.stats()["events_deduped"] >= 30

    def test_slash_of_genesis_member_after_compaction(self):
        sharded = MembershipStore(depth=DEPTH, sub_depth=3).local_group()
        flat = FlatReplica(DEPTH)
        commitments = _commitments(25, seed=13)
        sharded.apply_registration_batch(commitments, event_index=0)
        for event, commitment in enumerate(commitments):
            flat.apply_registration(commitment, event)
        victim = commitments[4]
        index = sharded.index_of(victim)
        assert index == flat.index_of(victim) == 4
        # The batch counted as ONE contract event for the sharded
        # replica; the one-by-one flat replica consumed 25.
        sharded.apply_removal(index, 1)
        flat.apply_removal(index, 25)
        _assert_groups_equal(sharded, flat)
        assert not sharded.contains(victim)


class TestGenesisLookupIndex:
    """The compacted prefix's sorted slot index against the per-version
    oracle's ``find_leaf_at``."""

    POOL = list(range(1, 7))  # few values: repeats inside the prefix
    ABSENT = 99

    @settings(max_examples=60, deadline=None)
    @given(
        genesis=st.lists(st.sampled_from(POOL), min_size=2, max_size=40),
        roots_tail=st.integers(min_value=1, max_value=6),
        sub_depth=st.integers(min_value=1, max_value=DEPTH),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("slash"), st.integers(0, 10**6)),
                st.tuples(st.just("insert"), st.sampled_from(POOL)),
            ),
            max_size=10,
        ),
        probe_first=st.booleans(),
    )
    def test_matches_flat_oracle(
        self, genesis, roots_tail, sub_depth, ops, probe_first
    ):
        sharded = CanonicalShardedTree(DEPTH, sub_depth)
        flat = FlatTreeOracle(DEPTH)
        assert sharded.apply_batch(genesis, roots_tail) == (
            flat.apply_batch(genesis, roots_tail)
        )
        gv = sharded.genesis_version
        if probe_first:
            # Index built before any overwrite; otherwise it is built
            # after them and must read the prefix through the journal.
            sharded.find_leaf_at(genesis[0], sharded.version)
        for kind, arg in ops:
            if kind == "slash":
                # Any assigned slot: genesis slots get a journaled
                # overwrite, re-slashes and post-genesis slots too.
                event = ("set", arg % flat.leaf_count_at(flat.version), 0)
            else:
                event = ("insert", arg)  # same value, post-genesis
            sharded.apply(event)
            flat.apply(event)
        assert sharded.state_digest() == flat.state_digest()
        probes = self.POOL + [0, self.ABSENT]
        for version in [0, *range(gv, flat.version + 1)]:
            for value in probes:
                assert sharded.find_leaf_at(value, version) == (
                    flat.find_leaf_at(value, version)
                ), (value, version)
        for version in range(1, gv):
            with pytest.raises(MerkleError):
                sharded.find_leaf_at(genesis[0], version)
        if gv:
            # One index over the whole batch (the list's own, which a
            # contract holding the same list shares): 8 B per member.
            assert sharded.index_bytes == 8 * len(genesis)

    def test_slashed_genesis_slot_before_and_after(self):
        tree = CanonicalShardedTree(DEPTH, 2)
        tree.apply_batch([7, 8, 7, 9, 7, 5, 6], roots_tail=2)
        gv = tree.genesis_version
        assert gv == 5 and tree.index_bytes == 0  # lazy
        tree.apply(("set", 0, 0))  # slash the lowest holder of 7
        slashed = tree.version
        tree.apply(("insert", 7))
        # Built only now, after the overwrite: still sees slot 0's 7.
        assert tree.find_leaf_at(7, slashed - 1) == 0
        assert tree.find_leaf_at(7, slashed) == 2
        assert tree.find_leaf_at(7, tree.version) == 2
        assert tree.index_bytes == 8 * 7  # the whole batch's index
        tree.apply(("set", 2, 0))
        tree.apply(("set", 4, 0))
        assert tree.find_leaf_at(7, tree.version) == 7  # the re-insert
        assert tree.find_leaf_at(7, slashed) == 2
        assert tree.find_leaf_at(0, tree.version) == 0


class TestTwoLevelProof:
    def test_split_and_flatten_roundtrip(self):
        group = MembershipStore(depth=DEPTH, sub_depth=4).local_group()
        commitments = _commitments(20, seed=17)
        for event, commitment in enumerate(commitments):
            group.apply_registration(commitment, event)
        for index in (0, 7, 15, 19):
            flat_proof = group.merkle_proof(index)
            proof = group.two_level_proof(index)
            assert proof.sub.depth == 4
            assert proof.top.depth == DEPTH - 4
            assert proof.depth == DEPTH
            assert proof.leaf_index == index
            assert proof.sub_index == index >> 4
            assert proof.verify(group.root)
            assert proof.flatten().siblings == flat_proof.siblings
            again = TwoLevelProof.from_flat(flat_proof, 4)
            assert again == proof

    def test_sub_root_links_the_levels(self):
        group = MembershipStore(depth=DEPTH, sub_depth=2).local_group()
        for event, commitment in enumerate(_commitments(9, seed=19)):
            group.apply_registration(commitment, event)
        proof = group.two_level_proof(5)
        # The sub proof resolves to the sub-root, which is the leaf of
        # the top proof; tampering with either level breaks verify.
        assert proof.sub.verify(proof.sub_root)
        assert proof.top.verify(group.root)
        assert proof.top.leaf == proof.sub_root
        bad = TwoLevelProof(
            sub=proof.sub,
            sub_root=Fr(int(proof.sub_root) + 1),
            sub_index=proof.sub_index,
            top=proof.top,
        )
        assert not bad.verify(group.root)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), sub_depth=st.integers())
    def test_from_flat_round_trips_or_raises_typed(self, data, sub_depth):
        depth = data.draw(st.integers(min_value=1, max_value=8))
        field = st.integers(min_value=0, max_value=Fr.MODULUS - 1)
        proof = MerkleProof(
            leaf=Fr(data.draw(field)),
            leaf_index=data.draw(st.integers(0, (1 << depth) - 1)),
            siblings=tuple(Fr(data.draw(field)) for _ in range(depth)),
            path_bits=tuple(
                data.draw(st.integers(0, 1)) for _ in range(depth)
            ),
        )
        try:
            split = TwoLevelProof.from_flat(proof, sub_depth)
        except MerkleError:
            assert not 0 < sub_depth < depth
            return
        assert split.flatten() == proof
        root = proof.compute_root()
        for probe in (root, Fr(int(root) + 1)):
            assert split.verify(probe) == proof.verify(probe)

    def test_flat_view_refuses_two_level_proofs(self):
        group = MembershipStore(depth=DEPTH).local_group()
        group.apply_registration(_commitments(1)[0], 0)
        with pytest.raises(MerkleError):
            group.two_level_proof(0)


class TestReplicaBehavior:
    def test_diverging_replica_raises_sync_error(self):
        store = MembershipStore(depth=DEPTH, sub_depth=2)
        commitments = _commitments(10, seed=23)
        canonical_replica = store.local_group()
        divergent = store.local_group()
        canonical_replica.apply_registration_batch(
            commitments[:8], event_index=0
        )
        divergent.apply_registration_batch(commitments[:7], event_index=0)
        canonical = store.canonical()
        digest = canonical.state_digest()
        root, version = divergent.root, divergent.tree.version
        # Replica 2 now applies a *different* second event (its batch
        # was contract event 0): it is off the log, and nothing moves.
        with pytest.raises(SyncError, match="version 7"):
            divergent.apply_registration(commitments[9], 1)
        assert canonical.state_digest() == digest
        assert (divergent.root, divergent.tree.version) == (root, version)
        assert divergent.applied_events == 1
        # Canonical side unaffected; a third replica dedups cleanly.
        third = store.local_group()
        third.apply_registration_batch(commitments[:8], event_index=0)
        _assert_groups_equal(third, canonical_replica)

    def test_lazy_materialization_tracks_active_slice(self):
        tree = CanonicalShardedTree(8, 4)
        assert tree.materialized_subtrees == 0
        tree.apply_batch(list(range(1, 33)), roots_tail=1)
        # The genesis fold stores only leaves and sub-roots; the lone
        # journaled tail write materialized its sub-tree's interior.
        assert tree.materialized_subtrees == 1
        # The next write lands in sub-tree 2 and materializes it too;
        # the other 14 sub-trees stay as bare leaf lists.
        tree.apply(("insert", 100))
        assert tree.materialized_subtrees == 2
        assert tree.storage_bytes() > 0

    def test_genesis_slash_copies_only_its_own_sub_tree(self):
        # The compacted leaf chunks are views of the genesis list; a
        # write takes its sub-tree's 16 leaves private and leaves the
        # list, and every other chunk, as they were.
        members = PackedFieldList.of(range(1, 101))
        tree = CanonicalShardedTree(8, 4)
        flat = FlatTreeOracle(8)
        tree.apply_batch(members, roots_tail=1)
        flat.apply_batch(members, roots_tail=1)
        assert tree.materialized_subtree_indices() == {6}  # the tail
        for event in (("set", 20, 0), ("insert", 777)):
            tree.apply(event)
            flat.apply(event)
        assert tree.materialized_subtree_indices() == {1, 6}
        for k, leaves in enumerate(tree._sub_leaves):
            if k in (1, 6):
                assert type(leaves) is list
            else:
                assert leaves._source is members._source
        assert members[20] == 21 and tuple(members) == tuple(range(1, 101))
        assert tree.node_at(0, 20, tree.version) == 0
        assert tree.node_at(0, 20, tree.version - 2) == 21
        assert tree.find_leaf_at(21, tree.version) is None
        assert tree.find_leaf_at(21, tree.version - 2) == 20
        assert tree.state_digest() == flat.state_digest()
        assert tree.storage_bytes() == 32 * (
            101 + 7 + len(tree._interior) + len(tree._top_nodes)
        )
        # Every node, read at the head, matches the oracle's.
        for height in range(9):
            for index in range(2 ** (8 - height)):
                assert tree.node_at(height, index, tree.version) == (
                    flat.node_at(height, index, flat.version)
                )


def _advance(view, tree):
    """Apply the event at ``view``'s version, as a lagging replica's
    sync does (the genesis batch whole, through its fast path)."""
    if view.version < tree.genesis_version:
        view.synced_extend(tree.genesis_members, 2)
        return
    event = tree.event_at(view.version)
    if event[0] == "insert":
        view.synced_insert(Fr(event[1]))
    else:
        view.synced_update(event[1], Fr(event[2]))


class TestJournalPrune:
    """A tree whose undo journal is pruned below its laggiest view
    against one never pruned, driven by the same views."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        genesis=st.integers(0, 12),
        sub_depth=st.sampled_from([2, DEPTH]),
    )
    def test_reads_from_the_floor_on_equal_a_never_pruned_tree(
        self, data, genesis, sub_depth
    ):
        pruned, full = (CanonicalShardedTree(DEPTH, sub_depth) for _ in "ab")
        if genesis:
            for tree in (pruned, full):
                tree.apply_batch(list(range(1, genesis + 1)), roots_tail=2)
        pairs = [(SharedMerkleView(pruned), SharedMerkleView(full))]
        values = st.integers(1, 6)  # repeats are common
        for _ in range(data.draw(st.integers(1, 25))):
            action = data.draw(st.sampled_from(
                ["register", "slash", "sync", "diverge", "view", "clone",
                 "drop", "prune", "prune"]
            ))
            if action == "view" or not pairs:
                pairs.append(
                    (SharedMerkleView(pruned), SharedMerkleView(full))
                )
                continue
            i = data.draw(st.integers(0, len(pairs) - 1))
            a, b = pairs[i]
            if action in ("register", "slash"):
                while a.version < pruned.version:  # catch up, then write
                    _advance(a, pruned)
                    _advance(b, full)
            if action == "register":
                value = Fr(data.draw(values))
                a.synced_insert(value)
                b.synced_insert(value)
            elif action == "slash" and a.leaf_count:
                index = data.draw(st.integers(0, a.leaf_count - 1))
                a.synced_update(index, Fr.zero())
                b.synced_update(index, Fr.zero())
            elif action == "sync":
                for _ in range(data.draw(st.integers(1, 3))):
                    if a.version < pruned.version:
                        _advance(a, pruned)
                        _advance(b, full)
            elif action == "diverge" and a.version < pruned.version:
                # No log records a value above 100; pruned or not, the
                # lagging view refuses it and nothing moves.
                value = Fr(100 + data.draw(values))
                digest, version = pruned.state_digest(), a.version
                with pytest.raises(SyncError):
                    a.synced_insert(value)
                assert pruned.state_digest() == digest
                assert a.version == version
            elif action == "clone":
                pairs.append((a.clone(), b.clone()))
            elif action == "drop":
                del pairs[i]
            elif action == "prune":
                before = pruned._node_floor
                pruned.prune()
                laggiest = min(a.version for a, _ in pairs)
                assert pruned._node_floor in (before, laggiest)
            self._assert_reads_equal(pruned, full, pairs)
        for a, b in pairs:  # every attached view reaches the head
            while a.version < pruned.version:
                _advance(a, pruned)
                _advance(b, full)
        pruned.prune()
        self._assert_reads_equal(pruned, full, pairs)
        floor = pruned._node_floor
        assert all(
            version > floor
            for entries in pruned._journal.values()
            for version, _ in entries
        )

    @staticmethod
    def _assert_reads_equal(pruned, full, pairs):
        floor = max(pruned._node_floor, pruned.genesis_version)
        probes = range(0, 8)
        for version in [0, *range(floor, pruned.version + 1)]:
            assert pruned.root_at(version) == full.root_at(version)
            for value in probes:
                assert pruned.find_leaf_at(value, version) == (
                    full.find_leaf_at(value, version)
                )
            for height in range(DEPTH + 1):
                for index in range(min(4, 2 ** (DEPTH - height))):
                    assert pruned.node_at(height, index, version) == (
                        full.node_at(height, index, version)
                    )
        for version in range(pruned.genesis_version + 1, floor):
            with pytest.raises(MerkleError):  # refused, never stale
                pruned.node_at(0, 0, version)
            with pytest.raises(MerkleError):
                pruned.find_leaf_at(1, version)
        for a, b in pairs:
            if 0 < a.version < floor:
                continue  # a replay in progress reads events only
            assert a.root == b.root and a.leaf_count == b.leaf_count
            for index in range(min(a.leaf_count, 4)):
                assert a.proof(index) == b.proof(index)
            for value in probes:
                assert a.find_leaf(Fr(value)) == b.find_leaf(Fr(value))
