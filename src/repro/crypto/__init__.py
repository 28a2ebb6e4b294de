"""Cryptographic substrates: field, hashes, trees, sharing, zkSNARKs."""

from .field import Fr, fr_product, fr_sum
from .hashing import (
    available_backends,
    get_hash_backend,
    hash1,
    hash1_int,
    hash2,
    hash2_int,
    hash_bytes_to_field,
    hash_call_count,
    set_hash_backend,
)
from .keys import IdentityCommitment, IdentitySecret, MembershipKeyPair
from .merkle import MerkleProof, MerkleTree, zero_hashes, zero_hashes_int
from .merkle_optimized import FrontierMerkleTree
from .merkle_shared import SharedMerkleView
from .poseidon import poseidon_hash, poseidon_hash1, poseidon_hash2
from .shamir import (
    Share,
    recover_secret_from_double_signal,
    rln_line_coefficient,
    rln_share,
)

__all__ = [
    "Fr",
    "fr_sum",
    "fr_product",
    "hash1",
    "hash2",
    "hash1_int",
    "hash2_int",
    "hash_call_count",
    "hash_bytes_to_field",
    "set_hash_backend",
    "get_hash_backend",
    "available_backends",
    "IdentitySecret",
    "IdentityCommitment",
    "MembershipKeyPair",
    "MerkleTree",
    "MerkleProof",
    "FrontierMerkleTree",
    "SharedMerkleView",
    "zero_hashes",
    "zero_hashes_int",
    "poseidon_hash",
    "poseidon_hash1",
    "poseidon_hash2",
    "Share",
    "rln_line_coefficient",
    "rln_share",
    "recover_secret_from_double_signal",
]
