"""Local (off-chain) membership group state.

Section III's central design choice: the contract stores only a flat,
ordered list of public keys, while **every peer maintains the Merkle
tree locally**, updating it from contract events ("Group
Synchronization"). :class:`LocalGroup` is that local replica.

Every replica's tree is a view of a canonical tree: one per
(deployment, domain) in a :class:`MembershipStore`, or a private one
for a replica built outside any deployment. A replica offered an event
other than the one its tree recorded raises
:class:`~repro.errors.SyncError`.

It also keeps a small window of recent roots. Proof verification
accepts any root in the window, which tolerates the unavoidable race
between a publisher proving against root ``r_k`` and a router that has
already applied the ``k+1``-th membership event. Replicas that started
at one version and applied the same events hold one shared window
(:class:`~repro.crypto.merkle_forest.RootWindow`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from ..constants import DEFAULT_MERKLE_DEPTH
from ..crypto.field import Fr
from ..crypto.keys import IdentityCommitment
from ..crypto.merkle import MerkleProof
from ..crypto.merkle_forest import CanonicalShardedTree, RootWindow
from ..crypto.merkle_shared import SharedMerkleView
from ..errors import MemberNotFoundError, SyncError

#: How many historical roots a router accepts by default.
DEFAULT_ROOT_WINDOW = 8


class LocalGroup:
    """A peer's local replica of the RLN membership tree.

    ``tree`` is a :class:`SharedMerkleView`: a deployment's
    :class:`MembershipStore` hands each replica a view of its domain's
    one canonical tree, which makes a membership event cost O(depth)
    hashes once network-wide instead of once per replica. Built without
    one (a standalone peer, an ablation), the replica gets a view of a
    private canonical tree of its own. The store's property tests prove
    bit-equal roots, root windows and decisions against replicas on a
    flat oracle tree.
    """

    def __init__(
        self,
        depth: int = DEFAULT_MERKLE_DEPTH,
        root_window: int = DEFAULT_ROOT_WINDOW,
        tree: Optional[SharedMerkleView] = None,
    ) -> None:
        self.tree = (
            SharedMerkleView(CanonicalShardedTree(depth, depth))
            if tree is None
            else tree
        )
        self.root_window = root_window
        self._window: RootWindow = self.tree.canonical.root_window(
            self.tree.version, root_window
        )
        #: Number of membership events applied; used to detect gaps.
        self.applied_events = 0

    # -- root bookkeeping ----------------------------------------------------

    def _remember(self, roots) -> None:
        self._window = self._window.advance(self.tree.version, roots)

    @property
    def root(self) -> Fr:
        return self.tree.root

    def recent_roots(self) -> List[Fr]:
        """Roots currently accepted for proof verification, oldest first."""
        return list(self._window.roots)

    def is_acceptable_root(self, root: Fr) -> bool:
        return root in self._window.roots

    # -- event application -----------------------------------------------------

    def apply_registration(
        self, commitment: IdentityCommitment, event_index: int
    ) -> int:
        """Apply a MemberRegistered event; returns the new leaf index.

        ``event_index`` is the contract's event sequence number; applying
        events out of order would silently diverge the local tree from the
        canonical one, so a gap raises :class:`SyncError` instead.
        """
        self._check_sequence(event_index)
        leaf_index = self.tree.synced_insert(commitment.element)
        self.applied_events += 1
        self._remember((self.tree.root,))
        return leaf_index

    def apply_registration_batch(
        self, commitments, event_index: int
    ) -> int:
        """Apply one MembersRegistered *batch* event (genesis
        registration); returns the first assigned leaf index.

        The whole batch is a single entry in the contract's event
        sequence. The tree hands back the roots of the last
        ``root_window`` intermediate states, so the remembered window
        after a batch is byte-identical to applying the same
        registrations one by one — the root-window regression suite
        pins this.
        """
        self._check_sequence(event_index)
        first_index, tail_roots = self.tree.synced_extend(
            commitments, self.root_window
        )
        self.applied_events += 1
        self._remember(tail_roots)
        return first_index

    def apply_event(self, event) -> Optional[int]:
        """Apply the membership contract's next log event.

        :attr:`applied_events` is its sequence number, so this is the
        one event applier every replica — peer or watchtower — runs
        over its cursor. Returns the leaf index a ``MemberRegistered``
        or ``MemberRemoved`` event touched (None for the bulk-applied
        genesis batch ``MembersRegistered``).
        """
        args = event.args
        if event.name == "MemberRegistered":
            return self.apply_registration(
                IdentityCommitment(Fr(args["pk"])), self.applied_events
            )
        if event.name == "MemberRemoved":
            self.apply_removal(args["index"], self.applied_events)
            return args["index"]
        if event.name == "MembersRegistered":
            self.apply_registration_batch(args["pks"], self.applied_events)
        return None

    def two_level_proof(self, leaf_index: int):
        """Sharded authentication path (sub-tree hop + top hop).

        Only meaningful when the replica's canonical tree is sharded;
        ``flatten()`` of the result is exactly
        :meth:`merkle_proof` of the same leaf.
        """
        return self.tree.two_level_proof(leaf_index)

    def apply_removal(self, leaf_index: int, event_index: int) -> None:
        """Apply a MemberRemoved (slashing) event."""
        self._check_sequence(event_index)
        self.tree.synced_update(leaf_index, Fr.zero())
        self.applied_events += 1
        self._remember((self.tree.root,))

    def replicate_from(self, other: "LocalGroup") -> None:
        """Adopt another replica's synced state wholesale.

        Group synchronization is deterministic — every honest replica
        that applied the same event prefix holds the same tree and root
        window — so a freshly bootstrapped peer may copy an up-to-date
        replica instead of replaying the whole event log. Behaviourally
        identical to applying the same events one by one, including the
        remembered intermediate roots. Both replicas must read the same
        canonical tree: adopting another domain's (or another replica's
        private) tree would silently re-bind this one to a different log.
        """
        if other.tree.canonical is not self.tree.canonical:
            raise SyncError(
                "cannot replicate a replica of a different canonical tree"
            )
        if other.root_window != self.root_window:
            raise SyncError("replicas disagree on the root-window size")
        self.tree = other.tree.clone()
        self._window = other._window
        self.applied_events = other.applied_events

    def _check_sequence(self, event_index: int) -> None:
        if event_index != self.applied_events:
            raise SyncError(
                f"membership event {event_index} applied out of order "
                f"(expected {self.applied_events})"
            )

    # -- queries ---------------------------------------------------------------

    @property
    def member_count(self) -> int:
        """Slots assigned so far (slashed members keep their slot)."""
        return self.tree.leaf_count

    def index_of(self, commitment: IdentityCommitment) -> int:
        """Leaf index of a commitment; raises if absent (e.g. slashed)."""
        index = self.tree.find_leaf(commitment.element)
        if index is None:
            raise MemberNotFoundError(
                f"commitment {commitment.element!r} is not in the local tree"
            )
        return index

    def contains(self, commitment: IdentityCommitment) -> bool:
        return self.tree.find_leaf(commitment.element) is not None

    def merkle_proof(self, leaf_index: int) -> MerkleProof:
        """Authentication path for a member's leaf (publisher side)."""
        return self.tree.proof(leaf_index)


class MembershipStore:
    """Deployment-wide shared membership-tree store.

    One :class:`~repro.crypto.merkle_forest.CanonicalShardedTree` per
    (deployment, domain); every replica created through
    :meth:`local_group` holds a view of its domain's
    canonical tree. The first replica to apply a membership event pays
    the O(depth) hashing; every other replica's application of the same
    event is a pointer advance (counted in ``events_deduped``), and a
    replica offered a different event raises :class:`SyncError` without
    touching its siblings.

    Every deployment builds one; a peer constructed outside a
    deployment's store keeps a private canonical tree.
    """

    def __init__(
        self,
        depth: int = DEFAULT_MERKLE_DEPTH,
        root_window: int = DEFAULT_ROOT_WINDOW,
        sub_depth: Optional[int] = None,
    ) -> None:
        if sub_depth is not None and not 0 < sub_depth <= depth:
            raise ValueError(
                f"membership sub-tree depth must satisfy "
                f"0 < {sub_depth} <= {depth}"
            )
        self.depth = depth
        self.root_window = root_window
        #: Canonical trees are sharded into 2^(depth - sub_depth)
        #: sub-trees of depth ``sub_depth`` under a root-of-roots (see
        #: :mod:`repro.crypto.merkle_forest`); None is one sub-tree
        #: spanning ``depth``.
        self.sub_depth = sub_depth or depth
        self._canonicals: Dict[str, CanonicalShardedTree] = {}

    def canonical(self, domain: str = "") -> CanonicalShardedTree:
        """The canonical tree for ``domain`` (created on first use)."""
        tree = self._canonicals.get(domain)
        if tree is None:
            tree = CanonicalShardedTree(self.depth, self.sub_depth)
            self._canonicals[domain] = tree
        return tree

    def view(self, domain: str = "") -> SharedMerkleView:
        """A fresh (empty, version-0) view of ``domain``'s tree."""
        return SharedMerkleView(self.canonical(domain))

    def local_group(self, domain: str = "") -> LocalGroup:
        """A replica backed by the shared store."""
        return LocalGroup(
            self.depth, self.root_window, tree=self.view(domain)
        )

    @property
    def domains(self) -> List[str]:
        return sorted(self._canonicals)

    def materialized_indices(self) -> Dict[str, FrozenSet[int]]:
        """Per-domain indices of the materialized sub-tree interiors.

        Unlike the ``stats()`` counts (per-store artifacts under
        parallel partitioning), the union of these sets across workers
        equals the single-store set — the partition-invariant form of
        the laziness measurement."""
        return {
            domain: tree.materialized_subtree_indices()
            for domain, tree in sorted(self._canonicals.items())
        }

    def stats(self) -> Dict[str, int]:
        """Aggregate sharing counters across all domains.

        ``shared_bytes`` is the paper's storage model (32 B per live
        tree node); ``index_bytes`` is host memory, the genesis lookup
        indexes' real buffer size, which that model does not see.
        """
        canonicals = self._canonicals.values()
        return {
            "domains": len(self._canonicals),
            "events": sum(c.version for c in canonicals),
            "events_deduped": sum(c.events_deduped for c in canonicals),
            "shared_bytes": sum(c.storage_bytes() for c in canonicals),
            # How many sub-tree interiors were actually built (memory
            # tracks the active slice, not the full capacity).
            "materialized_subtrees": sum(
                c.materialized_subtrees for c in canonicals
            ),
            "index_bytes": sum(c.index_bytes for c in canonicals),
        }
