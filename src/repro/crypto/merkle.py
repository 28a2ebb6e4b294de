"""Fixed-depth incremental Merkle tree with full node storage.

This is the *naive* membership-tree store the paper quotes 67 MB for at
depth 20: every internal node of the fixed-shape tree is materialised (or
defaulted to a precomputed zero-subtree hash). It is what the crypto
experiments (E1-E4, E8) prove against: append-only insertion of identity
commitments, authentication paths and the root. Replicas never hold one;
they read the one canonical tree of :mod:`repro.crypto.merkle_forest`
through :mod:`repro.crypto.merkle_shared`, whose reads are checked
against a flat per-version oracle built on this class.

Internally the tree is int-native: nodes are canonical integers hashed
through :func:`repro.crypto.hashing.hash2_int`, so a depth-20 path
update allocates no :class:`Fr` objects. The public API still speaks
``Fr``. The storage-optimized variant from reference [9] of the paper
lives in :mod:`repro.crypto.merkle_optimized`; property tests assert
both produce identical roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import MerkleError
from .field import Fr
from .hashing import get_hash_backend, hash2_int
from .slot_index import PackedFieldList

#: (backend name, depth) -> immutable zero-subtree digest table. Keyed
#: by backend so :func:`repro.crypto.hashing.set_hash_backend` needs no
#: explicit invalidation hook — a switched backend simply misses into
#: its own entries.
_ZERO_CACHE: Dict[Tuple[str, int], Tuple[int, ...]] = {}


def zero_hashes_int(depth: int) -> Tuple[int, ...]:
    """Int-native zero-subtree digests, cached per active hash backend.

    Every tree of a given depth shares one immutable table; before this
    cache the table was recomputed for every tree, i.e. once per
    peer x topic at network build time.
    """
    key = (get_hash_backend(), depth)
    cached = _ZERO_CACHE.get(key)
    if cached is None:
        zeros = [0]
        for _ in range(depth):
            zeros.append(hash2_int(zeros[-1], zeros[-1]))
        cached = _ZERO_CACHE[key] = tuple(zeros)
    return cached


def zero_hashes(depth: int) -> List[Fr]:
    """Zero-subtree digests ``z[0] = 0``, ``z[i+1] = H(z[i], z[i])``.

    ``z[i]`` is the root of an empty subtree of height ``i``.
    """
    return [Fr(z) for z in zero_hashes_int(depth)]


def pack_batch(leaves) -> PackedFieldList:
    """One batch membership event's leaves as a packed list. A zero
    leaf is refused: it moves no root, so the batch's root window
    would differ from a one-by-one replay's."""
    leaves = PackedFieldList.of(leaves)
    zero = leaves.index.first(0)
    if zero is not None:
        raise MerkleError(f"zero leaf at slot {zero} of a batch")
    return leaves


@dataclass(frozen=True)
class MerkleProof:
    """Authentication path for one leaf.

    ``siblings[i]`` is the sibling digest at height ``i`` and
    ``path_bits[i]`` is 1 when the leaf-side node is the *right* child at
    that height (i.e. bit ``i`` of the leaf index).
    """

    leaf: Fr
    leaf_index: int
    siblings: Tuple[Fr, ...]
    path_bits: Tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.siblings)

    def compute_root(self) -> Fr:
        """Fold the path back up to the root."""
        node = Fr(self.leaf)._value
        for bit, sibling in zip(self.path_bits, self.siblings):
            other = Fr(sibling)._value
            if bit:
                node = hash2_int(other, node)
            else:
                node = hash2_int(node, other)
        return Fr(node)

    def verify(self, root: Fr) -> bool:
        """Check this path authenticates ``leaf`` under ``root``."""
        return self.compute_root() == root


class MerkleTree:
    """Append-only fixed-depth Merkle tree storing every touched node.

    Nodes are kept in a dict keyed by ``(height, index)``; untouched
    nodes implicitly hold the zero-subtree digest for their height, so an
    empty tree costs nothing but a fully populated depth-20 tree stores
    2^21 - 1 field elements (~67 MB at 32 B each — the paper's figure).
    """

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise MerkleError("tree depth must be at least 1")
        self.depth = depth
        self.capacity = 1 << depth
        self._zeros = zero_hashes_int(depth)
        self._nodes: Dict[Tuple[int, int], int] = {}
        self._next_index = 0

    # -- node access --------------------------------------------------------

    def _get_node(self, height: int, index: int) -> int:
        return self._nodes.get((height, index), self._zeros[height])

    @property
    def root(self) -> Fr:
        """Digest of the whole tree."""
        return Fr(self._get_node(self.depth, 0))

    @property
    def leaf_count(self) -> int:
        """Number of slots ever assigned (includes deleted members)."""
        return self._next_index

    def leaf(self, index: int) -> Fr:
        """Current value of leaf ``index`` (zero if never set / deleted)."""
        self._check_index(index)
        return Fr(self._get_node(0, index))

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.capacity:
            raise MerkleError(
                f"leaf index {index} out of range for depth-{self.depth} tree"
            )

    # -- mutation -------------------------------------------------------------

    def insert(self, leaf: Fr) -> int:
        """Append ``leaf`` at the next free slot; returns its index."""
        if self._next_index >= self.capacity:
            raise MerkleError(f"tree is full ({self.capacity} leaves)")
        index = self._next_index
        self._set_leaf(index, Fr(leaf)._value)
        self._next_index += 1
        return index

    def _set_leaf(self, index: int, value: int) -> None:
        nodes = self._nodes
        zeros = self._zeros
        nodes[(0, index)] = value
        node = value
        node_index = index
        for height in range(1, self.depth + 1):
            sibling = nodes.get(
                (height - 1, node_index ^ 1), zeros[height - 1]
            )
            if node_index & 1:
                node = hash2_int(sibling, node)
            else:
                node = hash2_int(node, sibling)
            node_index >>= 1
            nodes[(height, node_index)] = node

    # -- proofs -----------------------------------------------------------------

    def proof(self, index: int) -> MerkleProof:
        """Authentication path for leaf ``index``."""
        self._check_index(index)
        siblings: List[Fr] = []
        bits: List[int] = []
        node_index = index
        for height in range(self.depth):
            bits.append(node_index & 1)
            siblings.append(Fr(self._get_node(height, node_index ^ 1)))
            node_index >>= 1
        return MerkleProof(
            leaf=self.leaf(index),
            leaf_index=index,
            siblings=tuple(siblings),
            path_bits=tuple(bits),
        )

    # -- storage accounting --------------------------------------------------

    def full_storage_bytes(self) -> int:
        """Bytes for a *fully materialised* depth-d tree: (2^(d+1)-1) * 32.

        This is the figure the paper quotes (67 MB at depth 20).
        """
        return 32 * ((1 << (self.depth + 1)) - 1)
