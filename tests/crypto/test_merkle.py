"""Tests for the full and frontier Merkle trees, and for the flat
oracle's overwrite / lookup / clone surface on top of the full tree."""

import pytest
from flat_tree_oracle import FlatTree
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import Fr
from repro.crypto.hashing import hash2_int
from repro.crypto.merkle import MerkleTree, zero_hashes_int
from repro.crypto.merkle_optimized import FrontierMerkleTree
from repro.errors import MerkleError

leaves_strategy = st.lists(
    st.integers(min_value=1, max_value=2**128).map(Fr), min_size=0, max_size=16
)


class TestZeroHashes:
    def test_length(self):
        assert len(zero_hashes_int(5)) == 6

    def test_recurrence(self):
        zeros = zero_hashes_int(3)
        assert zeros[0] == 0
        assert zeros[1] == hash2_int(0, 0)
        assert zeros[2] == hash2_int(zeros[1], zeros[1])

    def test_cached_per_backend(self):
        from repro.crypto.hashing import set_hash_backend

        blake = zero_hashes_int(4)
        assert zero_hashes_int(4) is blake  # same immutable table
        set_hash_backend("poseidon")
        poseidon = zero_hashes_int(4)
        assert poseidon != blake  # backend-keyed, no stale reuse
        assert zero_hashes_int(4) is poseidon
        set_hash_backend("blake2b")
        assert zero_hashes_int(4) is blake


class TestMerkleTree:
    def test_empty_root_is_zero_subtree(self):
        tree = MerkleTree(4)
        assert tree.root == Fr(zero_hashes_int(4)[4])

    def test_insert_changes_root(self):
        tree = MerkleTree(4)
        empty_root = tree.root
        tree.insert(Fr(42))
        assert tree.root != empty_root

    def test_insert_returns_sequential_indices(self):
        tree = MerkleTree(4)
        assert [tree.insert(Fr(i + 1)) for i in range(5)] == list(range(5))

    def test_capacity_enforced(self):
        tree = MerkleTree(2)
        for i in range(4):
            tree.insert(Fr(i + 1))
        with pytest.raises(MerkleError):
            tree.insert(Fr(99))

    def test_leaf_read_back(self):
        tree = MerkleTree(3)
        tree.insert(Fr(7))
        assert tree.leaf(0) == Fr(7)

    def test_index_out_of_range(self):
        tree = MerkleTree(3)
        with pytest.raises(MerkleError):
            tree.leaf(8)
        with pytest.raises(MerkleError):
            tree.proof(-1)

    def test_min_depth_validation(self):
        with pytest.raises(MerkleError):
            MerkleTree(0)

    def test_full_storage_formula(self):
        tree = MerkleTree(20)
        # (2^21 - 1) nodes * 32 B each = the paper's ~67 MB (decimal) figure.
        assert tree.full_storage_bytes() == 32 * (2**21 - 1)
        assert tree.full_storage_bytes() == pytest.approx(67e6, rel=0.01)


class TestFlatTree:
    """The replica surface the oracle adds to :class:`MerkleTree`."""

    def test_update_and_delete(self):
        tree = FlatTree(3)
        tree.insert(Fr(7))
        root_before = tree.root
        tree.update(0, Fr(8))
        assert tree.leaf(0) == Fr(8)
        assert tree.root != root_before
        tree.delete(0)
        assert tree.leaf(0) == Fr.zero()

    def test_update_unassigned_slot_rejected(self):
        tree = FlatTree(3)
        with pytest.raises(MerkleError):
            tree.update(0, Fr(1))

    def test_find_leaf(self):
        tree = FlatTree(3)
        tree.insert(Fr(5))
        tree.insert(Fr(6))
        assert tree.find_leaf(Fr(6)) == 1
        assert tree.find_leaf(Fr(99)) is None

    def test_find_leaf_first_occurrence_wins(self):
        tree = FlatTree(3)
        tree.insert(Fr(7))
        tree.insert(Fr(7))
        assert tree.find_leaf(Fr(7)) == 0
        tree.delete(0)
        assert tree.find_leaf(Fr(7)) == 1
        assert tree.find_leaf(Fr.zero()) == 0  # explicit zeroed slot

    def test_find_leaf_tracks_updates(self):
        tree = FlatTree(3)
        tree.insert(Fr(1))
        tree.insert(Fr(2))
        tree.update(0, Fr(3))
        assert tree.find_leaf(Fr(1)) is None
        assert tree.find_leaf(Fr(3)) == 0
        # Updating slot 1 to an existing value keeps lowest-index-first.
        tree.update(1, Fr(3))
        assert tree.find_leaf(Fr(3)) == 0
        tree.update(0, Fr(9))
        assert tree.find_leaf(Fr(3)) == 1

    def test_clone_index_is_independent(self):
        tree = FlatTree(3)
        tree.insert(Fr(5))
        twin = tree.clone()
        twin.update(0, Fr(6))
        assert tree.find_leaf(Fr(5)) == 0
        assert twin.find_leaf(Fr(5)) is None
        assert twin.find_leaf(Fr(6)) == 0
        assert tree.root != twin.root

    def test_leaves_in_insertion_order(self):
        tree = FlatTree(3)
        values = [Fr(3), Fr(1), Fr(2)]
        for v in values:
            tree.insert(v)
        assert list(tree.leaves()) == values

    def test_storage_grows_with_inserts(self):
        tree = FlatTree(8)
        before = tree.storage_bytes()
        tree.insert(Fr(1))
        assert tree.storage_bytes() > before


class TestMerkleProof:
    def test_proof_verifies(self):
        tree = MerkleTree(5)
        for i in range(7):
            tree.insert(Fr(100 + i))
        for i in range(7):
            proof = tree.proof(i)
            assert proof.verify(tree.root)
            assert proof.leaf == Fr(100 + i)

    def test_proof_fails_against_other_root(self):
        tree = MerkleTree(5)
        tree.insert(Fr(1))
        proof = tree.proof(0)
        tree.insert(Fr(2))
        assert not proof.verify(tree.root)

    def test_tampered_sibling_fails(self):
        tree = MerkleTree(4)
        tree.insert(Fr(1))
        tree.insert(Fr(2))
        proof = tree.proof(0)
        bad = proof.__class__(
            leaf=proof.leaf,
            leaf_index=proof.leaf_index,
            siblings=(proof.siblings[0] + Fr(1),) + proof.siblings[1:],
            path_bits=proof.path_bits,
        )
        assert not bad.verify(tree.root)

    def test_path_bits_match_index(self):
        tree = MerkleTree(4)
        for i in range(6):
            tree.insert(Fr(i + 1))
        proof = tree.proof(5)
        assert proof.path_bits == (1, 0, 1, 0)  # 5 = 0b0101, LSB first
        assert proof.depth == tree.depth == 4

    def test_proof_for_unset_leaf_verifies(self):
        tree = MerkleTree(4)
        tree.insert(Fr(9))
        proof = tree.proof(0)
        tree2 = MerkleTree(4)
        tree2.insert(Fr(9))
        assert proof.verify(tree2.root)


class TestFrontierEquivalence:
    def test_empty_roots_match(self):
        assert FrontierMerkleTree(6).root == MerkleTree(6).root

    @settings(max_examples=25, deadline=None)
    @given(leaves_strategy)
    def test_roots_match_full_tree(self, leaves):
        full = MerkleTree(5)
        frontier = FrontierMerkleTree(5)
        for leaf in leaves:
            full.insert(leaf)
            frontier.insert(leaf)
            assert frontier.root == full.root
        assert frontier.leaf_count == full.leaf_count

    def test_capacity_enforced(self):
        frontier = FrontierMerkleTree(2)
        for i in range(4):
            frontier.insert(Fr(i + 1))
        with pytest.raises(MerkleError):
            frontier.insert(Fr(5))

    def test_storage_is_constant_in_members(self):
        frontier = FrontierMerkleTree(20)
        empty_storage = frontier.storage_bytes()
        for i in range(50):
            frontier.insert(Fr(i + 1))
        assert frontier.storage_bytes() == empty_storage
        # depth 20 -> 21 words * 32 B = 672 B, the paper's "0.1 KB scale".
        assert frontier.storage_bytes() == 32 * 21

    def test_storage_ratio_vs_full_tree_is_five_orders(self):
        frontier = FrontierMerkleTree(20)
        full = MerkleTree(20)
        ratio = full.full_storage_bytes() / frontier.storage_bytes()
        assert ratio > 10**4  # the paper's "67 MB -> 0.1 KB" scale
