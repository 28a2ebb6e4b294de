"""Versioned-read oracle for the canonical membership tree.

:class:`~repro.crypto.merkle_forest.CanonicalShardedTree` answers reads
at any past version through an undo journal, builds sub-tree interiors
lazily and compacts a genesis prefix. This oracle answers the same
questions the plainest way: it keeps one full
:class:`~repro.crypto.merkle.MerkleTree` clone per version, so a read
at version ``v`` is a read of snapshot ``v``. Memory is O(versions x
nodes), which is fine for the small trees the property tests draw.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.field import Fr
from repro.crypto.merkle import MerkleTree


class FlatTreeOracle:
    """Same ``apply`` / ``apply_batch`` / ``*_at`` surface as the
    canonical tree, over one :class:`MerkleTree` per version."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self._versions: List[MerkleTree] = [MerkleTree(depth)]

    @property
    def version(self) -> int:
        """Number of events applied."""
        return len(self._versions) - 1

    def apply(self, event: Tuple) -> Optional[int]:
        """``("insert", value)`` appends and returns the index;
        ``("set", index, value)`` overwrites an assigned slot."""
        tree = self._versions[-1].clone()
        if event[0] == "insert":
            index: Optional[int] = tree.insert(Fr(event[1]))
        else:
            _, slot, value = event
            tree.update(slot, Fr(value))
            index = None
        self._versions.append(tree)
        return index

    def apply_batch(
        self, values: Sequence[int], roots_tail: int
    ) -> Tuple[int, List[int]]:
        """Insert ``values`` one by one; returns (first index, roots of
        the last ``min(roots_tail, n)`` versions, oldest first)."""
        first = self.leaf_count_at(self.version)
        for value in values:
            self.apply(("insert", int(value)))
        tail = min(max(roots_tail, 1), len(values))
        versions = range(self.version - tail + 1, self.version + 1)
        return first, [self.root_at(v) for v in versions]

    def root_at(self, version: int) -> int:
        return int(self._versions[version].root)

    def leaf_count_at(self, version: int) -> int:
        return self._versions[version].leaf_count

    def node_at(self, height: int, index: int, version: int) -> int:
        """Digest of node ``(height, index)`` as of ``version``."""
        return self._versions[version]._get_node(height, index)

    def find_leaf_at(self, value: int, version: int) -> Optional[int]:
        """Lowest index holding ``value`` as of ``version`` (or None)."""
        return self._versions[version].find_leaf(Fr(value))

    def state_digest(self) -> Tuple[int, int, int]:
        """``(version, head root, head leaf count)``."""
        top = self.version
        return (top, self.root_at(top), self.leaf_count_at(top))
