"""One replica's view of the shared membership tree.

The paper has every peer maintain the Merkle tree locally ("Group
Synchronization", Section III). Read literally, a network of N replicas
pays N x O(depth) hashes for every membership event, even though group
sync is deterministic: every replica that applied the same prefix of
the contract's one event log holds byte-identical state. This module
exploits that determinism. Each (deployment, domain) has one
:class:`~repro.crypto.merkle_forest.CanonicalShardedTree`, whose undo
journal keeps every historical version readable, and each replica holds
a :class:`SharedMerkleView` of it: a version pointer. A membership event
applied through a view either

* advances the canonical head — the **first** replica to apply it pays
  the O(depth) hashes, once network-wide; or
* matches the event already recorded at the view's version — every
  later replica advances a pointer, **zero** hashing.

Matching events by value is sound because a view's state equals the
canonical state at its version; identical operations applied to
identical states produce identical trees, so a matching event *is* the
proof that pointer-advancing reproduces what local hashing would have
computed. An event that differs from the recorded one means the replica
is not reading the log every other replica reads: that is a bug, not a
state, so it raises :class:`~repro.errors.SyncError` and changes
nothing. The equivalence property tests in ``tests/rln/test_membership_store.py``
check views against replicas built on a flat oracle tree, under random
interleavings of registrations, slashes, replication and divergent
events.
"""

from __future__ import annotations

from typing import List, Optional, Tuple
from weakref import ref

from ..errors import MerkleError, SyncError
from .field import Fr
from .merkle import MerkleProof, pack_batch
from .merkle_forest import CanonicalShardedTree, Event, TwoLevelProof


class SharedMerkleView:
    """One replica's view of a :class:`CanonicalShardedTree`.

    The tree a :class:`~repro.rln.membership.LocalGroup` holds: the
    canonical state as of :attr:`version`, mutated only by the synced
    event log, with every structure shared with the canonical tree.
    """

    def __init__(
        self, canonical: CanonicalShardedTree, version: int = 0
    ) -> None:
        self.canonical = canonical
        self.depth = canonical.depth
        self.capacity = canonical.capacity
        self.sub_depth = canonical.sub_depth
        #: Canonical version this view has applied.
        self.version = version
        canonical.views.append(ref(self))  # for its journal prune

    # -- state ---------------------------------------------------------------

    def _node(self, height: int, index: int) -> int:
        return self.canonical.node_at(height, index, self.version)

    @property
    def root(self) -> Fr:
        return Fr(self.canonical.root_at(self.version))

    @property
    def leaf_count(self) -> int:
        return self.canonical.leaf_count_at(self.version)

    def leaf(self, index: int) -> Fr:
        self._check_index(index)
        return Fr(self._node(0, index))

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.capacity:
            raise MerkleError(
                f"leaf index {index} out of range for depth-{self.depth} tree"
            )

    # -- synced mutation (group-sync authority) --------------------------------

    def _check_recorded(self, version: int, event: Event) -> None:
        """Refuse ``event`` unless the log recorded it at ``version``."""
        recorded = self.canonical.event_at(version)
        if recorded != event:
            raise SyncError(
                f"membership event at version {version} diverges from the "
                f"log: recorded {recorded!r}, offered {event!r}"
            )

    def _apply(self, event: Event) -> Optional[int]:
        """Apply ``event`` at this view's version: record it at the head,
        else match it against the recorded one (no hashing)."""
        canon = self.canonical
        if self.version == canon.version:
            index = canon.apply(event)
        else:
            self._check_recorded(self.version, event)
            index = canon.leaf_count_at(self.version)
            canon.events_deduped += 1
        self.version += 1
        return index

    def synced_insert(self, leaf: Fr) -> int:
        """Append ``leaf`` as a *membership event* from the synced log.

        Only this path may advance the canonical head: the contract
        event log is the deployment's one source of truth, so the first
        replica to apply an event records it (and pays the hashing) for
        everyone. Later replicas advance a pointer; an event that
        disagrees with the recorded one raises :class:`SyncError`.
        """
        if self.leaf_count >= self.capacity:
            raise MerkleError(f"tree is full ({self.capacity} leaves)")
        return self._apply(("insert", Fr(leaf)._value))

    def synced_update(self, index: int, leaf: Fr) -> None:
        """Overwrite slot ``index`` as a membership event (slash = zero).

        Same head/dedup/:class:`SyncError` contract as
        :meth:`synced_insert`.
        """
        self._check_index(index)
        if index >= self.leaf_count:
            raise MerkleError(f"leaf {index} has not been inserted yet")
        self._apply(("set", index, Fr(leaf)._value))

    def synced_extend(
        self, leaves, roots_tail: int
    ) -> Tuple[int, List[Fr]]:
        """Apply one *batch* membership event (genesis registration).

        Same contract as :meth:`synced_insert`, value by value: the part
        the log already records is matched first (a divergent value
        raises :class:`SyncError` before anything moves), and the rest
        goes to the canonical tree's
        :meth:`~CanonicalShardedTree.apply_batch` so it can compact the
        genesis prefix; the very batch the tree compacted is matched
        whole, in O(1). Returns ``(first index, roots of the last
        min(roots_tail, n) states, oldest first)`` — exactly the roots a
        replica must remember for its window to match a one-by-one
        replay.
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
        canon = self.canonical
        version = self.version
        if values is canon.genesis_members and not version:
            # The first view past it is the replica that applied it at
            # the head; a later one dedups n, as value by value it did.
            canon.events_deduped += n if canon.genesis_claimed else 0
            canon.genesis_claimed = True
            self.version = n
            versions = range(need_from + 1, n + 1)
            return first, [Fr(canon.root_at(v)) for v in versions]
        matched = min(n, canon.version - version)
        for i in range(matched):
            self._check_recorded(version + i, ("insert", values[i]))
        # Raises MerkleError if one of these roots was compacted — only
        # possible when this batch is a strict prefix of the canonical
        # genesis batch, which no event log holds.
        tail_roots = [
            Fr(canon.root_at(v))
            for v in range(version + need_from + 1, version + matched + 1)
        ]
        canon.events_deduped += matched
        self.version += matched
        if matched < n:
            _, tail = canon.apply_batch(values[matched:], roots_tail)
            canon.genesis_claimed = True
            self.version += n - matched
            tail_roots.extend(Fr(root) for root in tail)
        return first, tail_roots[-(n - need_from):]

    # -- queries / proofs ------------------------------------------------------

    def find_leaf(self, leaf: Fr) -> Optional[int]:
        """First index holding ``leaf`` (O(1)-ish: versioned index map)."""
        return self.canonical.find_leaf_at(Fr(leaf)._value, self.version)

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
        """A sibling view of the same state: O(1), sharing everything."""
        return SharedMerkleView(self.canonical, self.version)
