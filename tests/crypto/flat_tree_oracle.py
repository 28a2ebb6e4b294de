"""Flat-tree oracles for the canonical membership tree and its views.

:class:`~repro.crypto.merkle_forest.CanonicalShardedTree` answers reads
at any past version through an undo journal, builds sub-tree interiors
lazily and compacts a genesis prefix. :class:`FlatTreeOracle` answers
the same questions the plainest way: it keeps one full :class:`FlatTree`
clone per version, so a read at version ``v`` is a read of snapshot
``v``. Memory is O(versions x nodes), which is fine for the small trees
the property tests draw.

:class:`FlatTree` is :class:`~repro.crypto.merkle.MerkleTree` plus the
replica surface a view has (overwrite, lookup, clone, the ``synced_*``
event appliers), and :class:`FlatReplica` is a
:class:`~repro.rln.membership.LocalGroup` on one: an independent
replica that shares no structure with any canonical tree, for the
shared-vs-independent equivalence tests.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.field import Fr
from repro.crypto.merkle import MerkleTree, pack_batch
from repro.errors import MerkleError, SyncError
from repro.rln.membership import DEFAULT_ROOT_WINDOW, LocalGroup


class FlatTree(MerkleTree):
    """A :class:`MerkleTree` with overwrite, an O(1) commitment -> index
    lookup and the ``synced_*`` appliers of
    :class:`~repro.crypto.merkle_shared.SharedMerkleView`."""

    def __init__(self, depth: int) -> None:
        super().__init__(depth)
        #: leaf value -> ascending indices currently holding it.
        self._leaf_slots: Dict[int, List[int]] = {}

    def insert(self, leaf: Fr) -> int:
        index = super().insert(leaf)
        self._index_leaf(Fr(leaf)._value, index)
        return index

    def update(self, index: int, leaf: Fr) -> None:
        """Overwrite an existing slot (member deletion writes zero)."""
        self._check_index(index)
        if index >= self._next_index:
            raise MerkleError(f"leaf {index} has not been inserted yet")
        value = Fr(leaf)._value
        old = self._get_node(0, index)
        if old != value:
            self._unindex_leaf(old, index)
            self._index_leaf(value, index)
        self._set_leaf(index, value)

    def delete(self, index: int) -> None:
        """Reset slot ``index`` to the zero leaf."""
        self.update(index, Fr.zero())

    # With no shared structure, membership events are plain mutations.
    synced_insert = insert
    synced_update = update

    def synced_extend(
        self, leaves, roots_tail: int
    ) -> Tuple[int, List[Fr]]:
        """A plain insert loop; returns ``(first index, roots of the
        last min(roots_tail, n) states, oldest first)``."""
        first = self._next_index
        leaves = pack_batch(leaves)
        n = len(leaves)
        if self._next_index + n > self.capacity:
            raise MerkleError(f"tree is full ({self.capacity} leaves)")
        need_from = n - min(max(roots_tail, 1), n) if n else 0
        roots: List[Fr] = []
        for j, leaf in enumerate(leaves):
            self.insert(leaf)
            if j >= need_from:
                roots.append(self.root)
        return first, roots

    def clone(self) -> "FlatTree":
        """An independent copy with identical contents."""
        other = FlatTree.__new__(FlatTree)
        other.__dict__.update(self.__dict__)
        other._nodes = dict(self._nodes)
        other._leaf_slots = {
            value: list(slots) for value, slots in self._leaf_slots.items()
        }
        return other

    def find_leaf(self, leaf: Fr) -> Optional[int]:
        """Index of the first occurrence of ``leaf`` among assigned slots."""
        slots = self._leaf_slots.get(Fr(leaf)._value)
        return slots[0] if slots else None

    def leaves(self) -> List[Fr]:
        """All assigned leaf values, in insertion order."""
        return [self.leaf(i) for i in range(self._next_index)]

    def storage_bytes(self) -> int:
        """Bytes required to persist every materialised node (32 B each)."""
        return 32 * len(self._nodes)

    def _index_leaf(self, value: int, index: int) -> None:
        slots = self._leaf_slots.get(value)
        if slots is None:
            self._leaf_slots[value] = [index]
        else:
            insort(slots, index)

    def _unindex_leaf(self, value: int, index: int) -> None:
        slots = self._leaf_slots.get(value)
        if slots is None or index not in slots:
            return
        slots.remove(index)
        if not slots:
            del self._leaf_slots[value]


class FlatReplica(LocalGroup):
    """An independent replica: a :class:`LocalGroup` on a
    :class:`FlatTree`, replicating by copying the whole tree, with a
    root-window dict of its own — the per-replica window the shared
    :class:`~repro.crypto.merkle_forest.RootWindow` replaced."""

    def __init__(
        self, depth: int, root_window: int = DEFAULT_ROOT_WINDOW
    ) -> None:
        self.tree = FlatTree(depth)
        self.root_window = root_window
        self._recent_roots: Dict[Fr, None] = {}  # oldest first
        self._remember((self.tree.root,))
        self.applied_events = 0

    def _remember(self, roots) -> None:
        recent = self._recent_roots
        for root in roots:
            recent.pop(root, None)  # a repeated root moves to the end
            recent[root] = None
            while len(recent) > self.root_window:
                del recent[next(iter(recent))]

    def recent_roots(self) -> List[Fr]:
        return list(self._recent_roots)

    def is_acceptable_root(self, root: Fr) -> bool:
        return root in self._recent_roots

    def replicate_from(self, other: "FlatReplica") -> None:
        if other.root_window != self.root_window:
            raise SyncError("replicas disagree on the root-window size")
        self.tree = other.tree.clone()
        self._recent_roots = dict(other._recent_roots)
        self.applied_events = other.applied_events


class FlatTreeOracle:
    """Same ``apply`` / ``apply_batch`` / ``*_at`` surface as the
    canonical tree, over one :class:`FlatTree` per version."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self._versions: List[FlatTree] = [FlatTree(depth)]

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
