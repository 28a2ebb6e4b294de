"""One replica's copy-on-write view of the shared membership tree.

The paper has every peer maintain the Merkle tree locally ("Group
Synchronization", Section III). Read literally, a network of N replicas
pays N x O(depth) hashes for every membership event, even though group
sync is deterministic: every honest replica that applied the same event
prefix holds byte-identical state. This module exploits that determinism
without giving up per-replica isolation. Each (deployment, domain) has
one :class:`~repro.crypto.merkle_forest.CanonicalShardedTree`, whose
undo journal keeps every historical version readable, and each replica
holds a :class:`SharedMerkleView` of it: a
:class:`~repro.crypto.merkle.MerkleTree`-compatible facade. A membership
event applied through a view either

* advances the canonical head — the **first** replica to apply it pays
  the O(depth) hashes, once network-wide;
* matches the event already recorded at the view's version — every
  later replica advances a pointer, **zero** hashing;
* diverges from the recorded event — the view *forks*: from then on it
  materialises private nodes in an overlay on top of the frozen
  canonical snapshot at its fork version. The canonical tree and
  sibling views never observe a fork's writes, and the fork never
  observes canonical events applied after its fork point.

Matching events by value is sound because a view is only attached while
its state equals the canonical state at its version; identical
operations applied to identical states produce identical trees, so a
matching event *is* the proof that pointer-advancing reproduces what
local hashing would have computed. The equivalence property tests in
``tests/rln/test_membership_store.py`` assert exactly that, under
random interleavings of registrations, slashes, replication and forced
forks.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple
from weakref import ref

from ..errors import MerkleError
from .field import Fr
from .hashing import hash2_int
from .merkle import MerkleProof, pack_batch
from .merkle_forest import CanonicalShardedTree, TwoLevelProof


class SharedMerkleView:
    """One replica's view of a :class:`CanonicalShardedTree`.

    Drop-in for :class:`~repro.crypto.merkle.MerkleTree` wherever a
    :class:`~repro.rln.membership.LocalGroup` needs a tree: the same
    mutation, query, proof and clone surface, with structural sharing
    underneath until the replica diverges.
    """

    def __init__(
        self, canonical: CanonicalShardedTree, version: int = 0
    ) -> None:
        self._canon = canonical
        self.depth = canonical.depth
        self.capacity = canonical.capacity
        self.sub_depth = canonical.sub_depth
        self._version = version
        self._forked = False
        # Populated on fork:
        self._fork_version = 0
        self._overlay: Optional[Dict[Tuple[int, int], int]] = None
        self._private_count = 0
        self._leaf_slots: Optional[Dict[int, List[int]]] = None
        canonical.views.append(ref(self))  # for its journal prune

    # -- state ---------------------------------------------------------------

    @property
    def is_forked(self) -> bool:
        """True once this replica diverged and went private."""
        return self._forked

    @property
    def version(self) -> int:
        """Canonical version this view has applied (fork point if forked)."""
        return self._fork_version if self._forked else self._version

    def _node(self, height: int, index: int) -> int:
        if self._forked:
            value = self._overlay.get((height, index))
            if value is not None:
                return value
            return self._canon.node_at(height, index, self._fork_version)
        return self._canon.node_at(height, index, self._version)

    @property
    def root(self) -> Fr:
        if self._forked:
            return Fr(self._node(self.depth, 0))
        return Fr(self._canon.root_at(self._version))

    @property
    def leaf_count(self) -> int:
        if self._forked:
            return self._private_count
        return self._canon.leaf_count_at(self._version)

    def leaf(self, index: int) -> Fr:
        self._check_index(index)
        return Fr(self._node(0, index))

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.capacity:
            raise MerkleError(
                f"leaf index {index} out of range for depth-{self.depth} tree"
            )

    # -- synced mutation (group-sync authority) --------------------------------

    def synced_insert(self, leaf: Fr) -> int:
        """Append ``leaf`` as a *membership event* from the synced log.

        Only this path may advance the canonical head: the contract
        event log is the deployment's one source of truth, so the first
        replica to apply an event records it (and pays the hashing) for
        everyone. Later replicas advance a pointer; a replica whose
        event disagrees with the recorded one is on a different log and
        forks.
        """
        if self.leaf_count >= self.capacity:
            raise MerkleError(f"tree is full ({self.capacity} leaves)")
        value = Fr(leaf)._value
        if not self._forked:
            canon = self._canon
            if self._version == canon.version:
                index = canon.apply(("insert", value))
                self._version += 1
                return index
            if canon.event_at(self._version) == ("insert", value):
                index = canon.leaf_count_at(self._version)
                self._version += 1
                canon.events_deduped += 1
                return index
            self._fork()
        return self._insert_private(value)

    def synced_update(self, index: int, leaf: Fr) -> None:
        """Overwrite slot ``index`` as a membership event (slash = zero).

        Same head/dedup/fork contract as :meth:`synced_insert`.
        """
        self._check_index(index)
        if index >= self.leaf_count:
            raise MerkleError(f"leaf {index} has not been inserted yet")
        value = Fr(leaf)._value
        if not self._forked:
            canon = self._canon
            event = ("set", index, value)
            if self._version == canon.version:
                canon.apply(event)
                self._version += 1
                return
            if canon.event_at(self._version) == event:
                self._version += 1
                canon.events_deduped += 1
                return
            self._fork()
        self._set_private(index, value)

    def synced_insert_batch(
        self, leaves, roots_tail: int
    ) -> Tuple[int, List[Fr]]:
        """Apply one *batch* membership event (genesis registration).

        Same head/dedup/fork contract as :meth:`synced_insert`, applied
        value by value; the head case hands the whole remainder to the
        canonical tree's :meth:`~CanonicalShardedTree.apply_batch` so it
        can compact the genesis prefix, and the very batch the tree
        compacted is matched whole, in O(1). Returns
        ``(first index, roots of the last min(roots_tail, n) states,
        oldest first)`` — exactly the roots a replica must remember for
        its window to match a one-by-one replay.
        """
        # A packed genesis list goes through as the same object, down
        # to the canonical tree's leaf chunks.
        values = pack_batch(leaves)
        n = len(values)
        if n == 0:
            return self.leaf_count, []
        if self.leaf_count + n > self.capacity:
            raise MerkleError(f"tree is full ({self.capacity} leaves)")
        first = self.leaf_count
        need_from = n - min(max(roots_tail, 1), n)
        tail_roots: List[Fr] = []
        i = 0
        canon = self._canon
        if values is canon.genesis_members and not (self._forked or self._version):
            # The first view past it is the replica that applied it at
            # the head; a later one dedups n, as value by value it did.
            canon.events_deduped += n if canon.genesis_claimed else 0
            canon.genesis_claimed = True
            self._version = n
            versions = range(need_from + 1, n + 1)
            return first, [Fr(canon.root_at(v)) for v in versions]
        while i < n:
            if self._forked:
                self._insert_private(values[i])
                if i >= need_from:
                    tail_roots.append(Fr(self._node(self.depth, 0)))
                i += 1
                continue
            if self._version == canon.version:
                _, tail = canon.apply_batch(values[i:], roots_tail)
                canon.genesis_claimed = True
                self._version += n - i
                tail_roots.extend(Fr(root) for root in tail)
                break
            if canon.event_at(self._version) == ("insert", values[i]):
                self._version += 1
                canon.events_deduped += 1
                if i >= need_from:
                    # Raises MerkleError if this version's root was
                    # compacted — only possible when this batch is
                    # shorter than the canonical genesis batch, i.e.
                    # the replica is on a different event log anyway.
                    tail_roots.append(Fr(canon.root_at(self._version)))
                i += 1
                continue
            self._fork()
        return first, tail_roots[-(n - need_from):]

    # -- out-of-band mutation --------------------------------------------------

    def insert(self, leaf: Fr) -> int:
        """Append ``leaf`` outside the synced event log.

        An out-of-band mutation means this replica no longer follows
        the deployment's log (adversarial desync, test manipulation),
        so the view forks *even at the head* — it must never push
        private state into the canonical tree that every honest replica
        would then mismatch against.
        """
        if self.leaf_count >= self.capacity:
            raise MerkleError(f"tree is full ({self.capacity} leaves)")
        if not self._forked:
            self._fork()
        return self._insert_private(Fr(leaf)._value)

    def update(self, index: int, leaf: Fr) -> None:
        """Overwrite an assigned slot outside the synced event log."""
        self._check_index(index)
        if index >= self.leaf_count:
            raise MerkleError(f"leaf {index} has not been inserted yet")
        if not self._forked:
            self._fork()
        self._set_private(index, Fr(leaf)._value)

    def delete(self, index: int) -> None:
        self.update(index, Fr.zero())

    def _insert_private(self, value: int) -> int:
        index = self._private_count
        self._index_private(value, index)
        self._write_private(index, value)
        self._private_count = index + 1
        return index

    def _set_private(self, index: int, value: int) -> None:
        old = self._node(0, index)
        if old != value:
            self._unindex_private(old, index)
            self._index_private(value, index)
        self._write_private(index, value)

    # -- fork (the copy-on-write event) ---------------------------------------

    def _fork(self) -> None:
        """Detach: freeze the canonical snapshot, go private.

        From here every mutation writes into a private overlay; reads
        fall through to the canonical state *as of the fork version*,
        which the undo journal keeps addressable while the view exists.
        Refused, with the view unchanged, at a version pruned past.
        """
        canon = self._canon
        self._leaf_slots = canon.leaf_slots_at(self._version)
        self._fork_version = self._version
        self._overlay = {}
        self._private_count = canon.leaf_count_at(self._version)
        self._forked = True
        canon.forks += 1

    def _index_private(self, value: int, index: int) -> None:
        slots = self._leaf_slots.get(value)
        if slots is None:
            self._leaf_slots[value] = [index]
        else:
            insort(slots, index)

    def _unindex_private(self, value: int, index: int) -> None:
        slots = self._leaf_slots.get(value)
        if slots is None:
            return
        try:
            slots.remove(index)
        except ValueError:
            return
        if not slots:
            del self._leaf_slots[value]

    def _write_private(self, index: int, value: int) -> None:
        overlay = self._overlay
        overlay[(0, index)] = value
        node = value
        node_index = index
        for height in range(1, self.depth + 1):
            sibling = self._node(height - 1, node_index ^ 1)
            if node_index & 1:
                node = hash2_int(sibling, node)
            else:
                node = hash2_int(node, sibling)
            node_index >>= 1
            overlay[(height, node_index)] = node

    # -- queries / proofs ------------------------------------------------------

    def find_leaf(self, leaf: Fr) -> Optional[int]:
        """First index holding ``leaf`` (O(1)-ish: versioned index map)."""
        value = Fr(leaf)._value
        if self._forked:
            slots = self._leaf_slots.get(value)
            return slots[0] if slots else None
        return self._canon.find_leaf_at(value, self._version)

    def proof(self, index: int) -> MerkleProof:
        """Authentication path for leaf ``index`` at this view's state."""
        self._check_index(index)
        siblings: List[Fr] = []
        bits: List[int] = []
        node_index = index
        for height in range(self.depth):
            bits.append(node_index & 1)
            siblings.append(Fr(self._node(height, node_index ^ 1)))
            node_index >>= 1
        return MerkleProof(
            leaf=self.leaf(index),
            leaf_index=index,
            siblings=tuple(siblings),
            path_bits=tuple(bits),
        )

    def two_level_proof(self, index: int):
        """Sharded proof shape (sub path + top path).

        ``flatten()`` of the result equals :meth:`proof` of the same
        index, so this is a presentation change, not a soundness one.
        A tree of one sub-tree has no top path: ``from_flat`` raises
        :class:`~repro.errors.MerkleError`.
        """
        return TwoLevelProof.from_flat(self.proof(index), self.sub_depth)

    def leaves(self) -> List[Fr]:
        return [self.leaf(i) for i in range(self.leaf_count)]

    def clone(self) -> "SharedMerkleView":
        """A sibling view of the same state.

        O(1) while attached (both views share the canonical structure);
        a forked view copies its private overlay so the clone is fully
        isolated from further mutation of either side.
        """
        other = SharedMerkleView(self._canon, self._version)
        if self._forked:
            other._forked = True
            other._fork_version = self._fork_version
            other._overlay = dict(self._overlay)
            other._private_count = self._private_count
            other._leaf_slots = {
                value: list(slots)
                for value, slots in self._leaf_slots.items()
            }
        return other

    # -- storage accounting ----------------------------------------------------

    def storage_bytes(self) -> int:
        """Bytes *this view* stores privately.

        Attached views share all structure with the canonical tree (see
        :meth:`CanonicalShardedTree.storage_bytes` for the shared cost);
        forked views pay for their overlay.
        """
        if self._forked:
            return 32 * len(self._overlay)
        return 0

    def full_storage_bytes(self) -> int:
        """Same formula as :meth:`MerkleTree.full_storage_bytes`."""
        return 32 * ((1 << (self.depth + 1)) - 1)
