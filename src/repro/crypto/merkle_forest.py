"""The canonical membership tree: a tree of sub-trees.

A depth-``d`` membership tree splits exactly into ``2^t`` fixed-capacity
sub-trees of depth ``s`` (``d = s + t``) under a top-level root-of-roots
of depth ``t``: leaf ``i`` lives at slot ``i & (2^s - 1)`` of sub-tree
``i >> s``, and the top tree's leaf ``k`` is sub-tree ``k``'s root. This
is a *decomposition* of the plain tree, not an approximation — every
node equals the corresponding node of a :class:`~repro.crypto.merkle.
MerkleTree` holding the same leaves, so the root is bit-identical (the
property suite in ``tests/crypto/test_merkle_forest.py`` pins this
under random registration/slash interleavings). ``s == d`` is one
sub-tree spanning the whole depth, with no top tree; it is what a
store without a sub-tree depth builds.

What the decomposition buys:

* **Genesis bulk build.** Registering ``N`` identities one by one costs
  ``N x d`` hashes plus ``N x d`` undo-journal tuples and ``N`` stored
  roots. :meth:`CanonicalShardedTree.apply_batch` at version 0 builds
  sub-trees bottom-up instead — ~2 hashes per leaf, no journal, no
  per-version roots — and only the last ``root_window`` insertions go
  through the normal journaled path so the resulting root window is
  byte-identical to the one-by-one replay.

* **Memory flatness.** Sub-tree interiors are *lazy*: after a bulk
  build only the leaf lists, the sub-roots and the (tiny) top tree are
  held. A sub-tree's interior is materialised on first write or proof
  inside it (~``2^s`` hashes, once), so steady-state node storage
  scales with the *active* slice of the membership, not its total size.

* **O(depth_sub + depth_top) incremental registration.** An insert
  hashes ``s`` levels inside one sub-tree plus ``t`` levels of the top
  tree — exactly ``d`` hashes, as in a plain tree; the sharding never
  makes the incremental path worse, while keeping the two wins above.

:class:`CanonicalShardedTree` sits behind every
:class:`~repro.crypto.merkle_shared.SharedMerkleView`: versioned reads
through an undo journal, and a dedup counter. Versions inside a
compacted genesis range are one exception: their roots and node
snapshots were never stored, so reading them raises
:class:`~repro.errors.MerkleError` instead of silently recomputing.
Node reads below the journal's pruned floor are the other.

:class:`TwoLevelProof` is the sharded proof shape: a sub-tree path to
the sub-root plus a top path from the sub-root to the root.
``flatten()`` recovers the flat :class:`~repro.crypto.merkle.MerkleProof`
(concatenation of the two paths), so verifiers are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple
from weakref import WeakValueDictionary, ref

from ..errors import MerkleError
from .field import Fr
from .hashing import hash2_int, hash_level_int
from .merkle import MerkleProof, zero_hashes_int
from .slot_index import PackedFieldList

Event = Tuple


@dataclass(frozen=True)
class TwoLevelProof:
    """A membership proof split at the sub-tree boundary.

    ``sub`` authenticates the leaf inside sub-tree ``sub_index`` (its
    computed root is ``sub_root``); ``top`` authenticates ``sub_root``
    as leaf ``sub_index`` of the root-of-roots. Flattening the two
    paths yields exactly the flat-tree proof for the same leaf.
    """

    sub: MerkleProof
    sub_root: Fr
    sub_index: int
    top: MerkleProof

    @property
    def depth(self) -> int:
        return self.sub.depth + self.top.depth

    @property
    def leaf_index(self) -> int:
        """Global leaf index: (sub_index << sub_depth) | local index."""
        return (self.sub_index << self.sub.depth) | self.sub.leaf_index

    @classmethod
    def from_flat(cls, proof: MerkleProof, sub_depth: int) -> "TwoLevelProof":
        """Split a flat proof at ``sub_depth``; pure — no tree access."""
        if not 0 < sub_depth < proof.depth:
            raise MerkleError(
                f"sub depth {sub_depth} outside a depth-{proof.depth} proof"
            )
        sub = MerkleProof(
            leaf=proof.leaf,
            leaf_index=proof.leaf_index & ((1 << sub_depth) - 1),
            siblings=proof.siblings[:sub_depth],
            path_bits=proof.path_bits[:sub_depth],
        )
        sub_root = sub.compute_root()
        sub_index = proof.leaf_index >> sub_depth
        top = MerkleProof(
            leaf=sub_root,
            leaf_index=sub_index,
            siblings=proof.siblings[sub_depth:],
            path_bits=proof.path_bits[sub_depth:],
        )
        return cls(sub=sub, sub_root=sub_root, sub_index=sub_index, top=top)

    def flatten(self) -> MerkleProof:
        """The equivalent flat-tree proof (path concatenation)."""
        return MerkleProof(
            leaf=self.sub.leaf,
            leaf_index=self.leaf_index,
            siblings=self.sub.siblings + self.top.siblings,
            path_bits=self.sub.path_bits + self.top.path_bits,
        )

    def verify(self, root: Fr) -> bool:
        """Both hops hold: leaf -> sub_root and sub_root -> root."""
        return (
            self.sub.compute_root() == self.sub_root
            and self.top.leaf == self.sub_root
            and self.top.verify(root)
        )


class RootWindow:
    """The last ``size`` distinct roots a replica accepts, oldest first.

    Shared: replicas of one canonical tree that started at one version
    (:meth:`CanonicalShardedTree.root_window`) and applied the same
    events hold one window, whose :meth:`advance` runs once for all.
    """

    __slots__ = ("roots", "size", "_next", "__weakref__")

    def __init__(self, roots: Dict[Fr, None], size: int) -> None:
        self.roots, self.size = roots, size
        #: ``(version, window)``: the successor last computed.
        self._next: Optional[Tuple[int, "RootWindow"]] = None

    def advance(self, version: int, roots: Sequence[Fr]) -> "RootWindow":
        """The window at ``version`` after remembering ``roots``, oldest
        first: a repeated root moves to the end, and the oldest drop out
        past ``size``."""
        if self._next is None or self._next[0] != version:
            recent = dict(self.roots)
            for root in roots:
                recent.pop(root, None)
                recent[root] = None
                while len(recent) > self.size:
                    del recent[next(iter(recent))]
            self._next = (version, RootWindow(recent, self.size))
        return self._next[1]


class CanonicalShardedTree:
    """The one copy of a membership tree a whole deployment shares.

    Mutation happens only through :meth:`apply` (or :meth:`apply_batch`),
    called by the single attached view that is first to reach a new
    membership event; every state the tree has been in since the genesis
    batch stays addressable by version (``version`` = number of events
    applied). Leaves are held in per-sub-tree lists, interiors are
    materialised lazily, and the batch path compacts the genesis prefix
    (see the module docstring).

    Events, roots and leaf history are retained for the process
    lifetime. The undo journal (O(depth) small tuples per event) is
    pruned by :meth:`prune` below the laggiest attached view: a view
    reads nodes only at its own version, which never falls.
    """

    def __init__(self, depth: int, sub_depth: int) -> None:
        if depth < 1:
            raise MerkleError("tree depth must be at least 1")
        if not 0 < sub_depth <= depth:
            raise MerkleError(
                f"sub-tree depth must satisfy 0 < {sub_depth} <= {depth}"
            )
        self.depth = depth
        self.sub_depth = sub_depth
        self.top_depth = depth - sub_depth
        self.capacity = 1 << depth
        self.sub_capacity = 1 << sub_depth
        self._sub_mask = self.sub_capacity - 1
        self._zeros = zero_hashes_int(depth)
        #: Leaf values per sub-tree, densely packed (sub k holds global
        #: leaves [k << sub_depth, (k+1) << sub_depth)): a view of the
        #: genesis list until the sub-tree is materialised, then a list.
        self._sub_leaves: List[Sequence[int]] = []
        #: Root of sub-tree k (parallel to _sub_leaves).
        self._sub_roots: List[int] = []
        #: Materialised sub-tree interior nodes, *global* (height, index)
        #: coordinates, heights 1 .. sub_depth-1.
        self._interior: Dict[Tuple[int, int], int] = {}
        self._materialized: Set[int] = set()
        #: Top-tree nodes, global coordinates, heights sub_depth+1 .. depth.
        self._top_nodes: Dict[Tuple[int, int], int] = {}
        #: Post-genesis undo journal: (height, index) -> [(version,
        #: value *before* that version)], ascending; node_at()
        #: binary-searches it for old versions.
        self._journal: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        #: Versions 1 .. _genesis_version were compacted by a genesis
        #: batch: no per-version events, roots or journal entries exist
        #: for them (they are reconstructed or refused on access).
        self._genesis_version = 0
        #: Nodes are readable at version 0 and from here on (prune()).
        self._node_floor = 0
        #: Weak references to the views reading this tree.
        self.views: List[ref] = []
        #: Post-genesis events; _events[i] moved the head from version
        #: _genesis_version + i to _genesis_version + i + 1.
        self._events: List[Event] = []
        #: _roots[i] / _leaf_counts[i] = state at _genesis_version + i.
        self._roots: List[int] = [self._zeros[depth]]
        self._leaf_counts: List[int] = [0]
        #: leaf value -> [(index, version at which it was written)];
        #: the versioned commitment->index map behind find_leaf_at().
        self._leaf_history: Dict[int, List[Tuple[int, int]]] = {}
        #: The genesis batch as applied (its first _genesis_version
        #: slots are the compacted prefix): the leaf chunks' source and
        #: the value -> genesis slots lookup as of the genesis version.
        self.genesis_members = PackedFieldList()
        #: Whether a view has applied the genesis batch (see SharedMerkleView).
        self.genesis_claimed = False
        #: Events replayed by later replicas without hashing (stat).
        self.events_deduped = 0
        #: (version, size) -> the root window replicas starting there
        #: share, kept while a replica holds it.
        self._start_windows: WeakValueDictionary = WeakValueDictionary()

    # -- head bookkeeping ---------------------------------------------------

    @property
    def version(self) -> int:
        return self._genesis_version + len(self._events)

    def event_at(self, version: int) -> Event:
        """The event that moved the head from ``version`` to ``version+1``.

        Genesis-compacted versions are all inserts of the genesis list.
        """
        if version < self._genesis_version:
            return ("insert", self.genesis_members[version])
        return self._events[version - self._genesis_version]

    def root_at(self, version: int) -> int:
        if version >= self._genesis_version:
            return self._roots[version - self._genesis_version]
        if version == 0:
            return self._zeros[self.depth]
        raise MerkleError(
            f"root at version {version} was compacted by the genesis "
            f"batch (first stored version is {self._genesis_version})"
        )

    def root_window(self, version: int, size: int) -> RootWindow:
        """The root window of a replica starting at ``version``: that
        version's root alone, one object for every such replica."""
        window = self._start_windows.get((version, size))
        if window is None:
            window = RootWindow({Fr(self.root_at(version)): None}, size)
            self._start_windows[(version, size)] = window
        return window

    def leaf_count_at(self, version: int) -> int:
        if version >= self._genesis_version:
            return self._leaf_counts[version - self._genesis_version]
        return version  # every genesis event is an insert

    def state_digest(self) -> Tuple[int, int, int]:
        """``(version, head root, head leaf count)`` — a compact,
        comparable summary of the whole event history (each version's
        root commits to every event before it)."""
        return (self.version, self._roots[-1], self._leaf_counts[-1])

    # -- mutation -----------------------------------------------------------

    def apply(self, event: Event) -> Optional[int]:
        """Apply one event at the head; returns the index for inserts.

        Bounds (capacity, assigned slot) are validated by the calling
        view before the event is built, and a non-contiguous write is
        refused before anything changes, so a rejected event never
        leaves the head half-mutated.
        """
        new_version = self.version + 1
        count = self._leaf_counts[-1]
        if event[0] == "insert":
            index, value = count, event[1]
            count += 1
        else:
            _, index, value = event
        root = self._write_path(index, value, new_version)
        self._events.append(event)
        self._roots.append(root)
        self._leaf_counts.append(count)
        self._leaf_history.setdefault(value, []).append(
            (index, new_version)
        )
        return index if event[0] == "insert" else None

    def apply_batch(
        self, values: Sequence[int], roots_tail: int
    ) -> Tuple[int, List[int]]:
        """Insert ``values`` in order; returns (first index, tail roots).

        At version 0 the prefix before the last ``roots_tail`` leaves is
        *compacted*: sub-trees are built bottom-up (~2 hashes/leaf, no
        journal, no per-version roots), then the tail goes through the
        normal journaled path — so the returned roots, and therefore a
        replica's root window, are byte-identical to a one-by-one
        replay. Past version 0 every insert is journaled as usual.

        The tail holds the roots of the last ``min(roots_tail, n)``
        versions, oldest first.
        """
        values = PackedFieldList.of(values)
        n = len(values)
        first = self._leaf_counts[-1]
        if n == 0:
            return first, []
        if first + n > self.capacity:
            raise MerkleError(f"tree is full ({self.capacity} leaves)")
        tail_len = min(max(roots_tail, 1), n)
        compact = n - tail_len if self.version == 0 else 0
        for start in range(0, compact, self.sub_capacity):
            chunk = values[start : min(start + self.sub_capacity, compact)]
            self._sub_leaves.append(chunk)
            self._sub_roots.append(self._fold_sub_root(chunk))
        if compact:
            self.genesis_members = values
            self._genesis_version = self._node_floor = compact
            self._roots = [self._rebuild_top()]
            self._leaf_counts = [compact]
        tail_roots = []
        for value in values[compact:]:
            self.apply(("insert", value))
            tail_roots.append(self._roots[-1])
        return first, tail_roots[-tail_len:]

    def _fold_sub_root(self, leaves: Sequence[int]) -> int:
        """Root of one sub-tree, bottom-up, storing no interior nodes."""
        level = leaves  # a packed chunk is hashed undecoded
        for height in range(self.sub_depth):
            level = hash_level_int(level, self._zeros[height])
        return level[0]

    def _rebuild_top(self) -> int:
        """(Re)build the whole top tree from the sub-roots; returns root."""
        level = self._sub_roots
        for height in range(self.sub_depth + 1, self.depth + 1):
            level = hash_level_int(level, self._zeros[height - 1])
            for j, node in enumerate(level):
                self._top_nodes[(height, j)] = node
        return level[0]

    def _materialize(self, k: int) -> None:
        """Build sub-tree ``k``'s interior nodes from its leaves (once)."""
        if k in self._materialized:
            return
        level = self._sub_leaves[k]
        # The sub-tree's own copy of its slice of the genesis list:
        # from here on its leaves are written in place.
        self._sub_leaves[k] = list(level)
        for height in range(1, self.sub_depth):
            level = hash_level_int(level, self._zeros[height - 1])
            base = k << (self.sub_depth - height)
            for j, node in enumerate(level):
                self._interior[(height, base + j)] = node
        self._materialized.add(k)

    def _node_head(self, height: int, index: int) -> int:
        """Current (head) digest of node (height, index)."""
        if height == 0:
            k = index >> self.sub_depth
            if k < len(self._sub_leaves):
                leaves = self._sub_leaves[k]
                local = index & self._sub_mask
                if local < len(leaves):
                    return leaves[local]
            return 0
        if height < self.sub_depth:
            k = index >> (self.sub_depth - height)
            if k < len(self._sub_leaves) and self._sub_leaves[k]:
                self._materialize(k)
                return self._interior.get(
                    (height, index), self._zeros[height]
                )
            return self._zeros[height]
        if height == self.sub_depth:
            if index < len(self._sub_roots):
                return self._sub_roots[index]
            return self._zeros[height]
        return self._top_nodes.get((height, index), self._zeros[height])

    def _head_set(self, height: int, index: int, value: int) -> None:
        if height < self.sub_depth:
            self._interior[(height, index)] = value
        elif height == self.sub_depth:
            self._sub_roots[index] = value
        else:
            self._top_nodes[(height, index)] = value

    def _write_path(self, index: int, value: int, new_version: int) -> int:
        """Journaled path rehash — ``MerkleTree._set_leaf``'s fold,
        routed through the sub-tree / top-tree stores. Identical hash
        order, so the resulting nodes equal a plain tree's bit for bit.
        """
        journal = self._journal
        k = index >> self.sub_depth
        local = index & self._sub_mask
        held = len(self._sub_leaves[k]) if k < len(self._sub_leaves) else 0
        if local > held:
            raise MerkleError(
                f"non-contiguous write at leaf {index} (sub-tree {k} "
                f"holds {held} leaves)"
            )
        while len(self._sub_leaves) <= k:
            self._sub_leaves.append([])
            self._sub_roots.append(self._zeros[self.sub_depth])
            self._materialized.add(len(self._sub_leaves) - 1)
        self._materialize(k)
        leaves = self._sub_leaves[k]
        key = (0, index)
        prev = leaves[local] if local < len(leaves) else 0
        journal.setdefault(key, []).append((new_version, prev))
        if local < len(leaves):
            leaves[local] = value
        else:
            leaves.append(value)
        node = value
        node_index = index
        for height in range(1, self.depth + 1):
            sibling = self._node_head(height - 1, node_index ^ 1)
            if node_index & 1:
                node = hash2_int(sibling, node)
            else:
                node = hash2_int(node, sibling)
            node_index >>= 1
            key = (height, node_index)
            journal.setdefault(key, []).append(
                (new_version, self._node_head(height, node_index))
            )
            self._head_set(height, node_index, node)
        return node

    # -- versioned reads -----------------------------------------------------

    def node_at(self, height: int, index: int, version: int) -> int:
        """Digest of node (height, index) as of ``version``.

        Genesis-compacted intermediate versions were never journaled
        and pruned ones are gone: neither can be read back; version 0
        (the empty tree) always can.
        """
        if version < self._node_floor:
            if version == 0:
                return self._zeros[height]
            raise MerkleError(
                f"node history at version {version} was compacted or "
                f"pruned (readable from version {self._node_floor})"
            )
        key = (height, index)
        if version < self.version:
            entries = self._journal.get(key)
            if entries:
                lo, hi = 0, len(entries)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if entries[mid][0] <= version:
                        lo = mid + 1
                    else:
                        hi = mid
                if lo < len(entries):
                    return entries[lo][1]
        return self._node_head(height, index)

    def find_leaf_at(self, value: int, version: int) -> Optional[int]:
        """Lowest index holding ``value`` as of ``version`` (or None)."""
        if 0 < version < self._node_floor:
            raise MerkleError(
                f"leaf lookup at compacted or pruned version {version}"
            )
        best: Optional[int] = None
        if self._genesis_version and version:
            # Candidates are the slots that held ``value`` at genesis;
            # the read through the journal drops the ones overwritten
            # by ``version``. Past the prefix, _leaf_history answers.
            for index in self.genesis_members.index.slots(value):
                if index >= self._genesis_version:
                    break
                if self.node_at(0, index, version) == value:
                    best = index
                    break
        for index, written in self._leaf_history.get(value, ()):
            if written <= version and (best is None or index < best):
                if self.node_at(0, index, version) == value:
                    best = index
        return best

    def prune(self) -> None:
        """Drop the journal entries no view reads: those at or below the
        laggiest view's version. A view attached later at version 0
        reads the empty tree and advances by events alone."""
        views = [v for v in (r() for r in self.views) if v is not None]
        self.views = list(map(ref, views))
        floor = min((v.version for v in views), default=self.version)
        if floor > self._node_floor:
            self._node_floor = floor
            self._journal = {
                key: kept for key, entries in self._journal.items()
                if (kept := [entry for entry in entries if entry[0] > floor])
            }

    def storage_bytes(self) -> int:
        """Bytes of live head node storage in the paper's storage model
        (32 B per node) — not host memory; see :attr:`index_bytes`."""
        nodes = (
            sum(len(leaves) for leaves in self._sub_leaves)
            + len(self._sub_roots)
            + len(self._interior)
            + len(self._top_nodes)
        )
        return 32 * nodes

    @property
    def index_bytes(self) -> int:
        """Host bytes of the genesis list's lookup index (0 until its
        first use, here or by the contract that shares the list);
        outside :meth:`storage_bytes`' model."""
        return self.genesis_members.index_bytes

    @property
    def materialized_subtrees(self) -> int:
        """Sub-trees whose interiors are held in memory (stat)."""
        return len(self._materialized)

    def materialized_subtree_indices(self) -> FrozenSet[int]:
        """*Which* sub-tree interiors are built (not just how many).

        Index sets from independently event-sourced stores — parallel
        workers each holding a roster slice — union to the single-store
        set, so equivalence checks compare these rather than the
        per-partition counts."""
        return frozenset(self._materialized)

    @property
    def genesis_version(self) -> int:
        """Number of leading versions compacted by the genesis batch."""
        return self._genesis_version
