"""The two membership-contract designs compared in the paper.

* :class:`MembershipRegistry` — the **paper's** design (Section III): the
  contract is "merely a registry keeping an ordered list of users public
  keys"; the Merkle tree lives off-chain with the peers. Registration
  and deletion touch a *constant* number of storage slots.

* :class:`OnChainTreeContract` — the **original RLN** design the paper
  optimizes away: the whole membership tree is contract storage, so each
  registration/deletion rewrites one node per tree level — a
  *logarithmic* number of cold SSTOREs. Benchmarks E5 regenerate the
  "order of magnitude" gas comparison from these two classes.

Both enforce staking (Sybil mitigation) and implement slashing: anyone
who submits a member's reconstructed secret key removes the member,
burns ``burn_fraction`` of the stake and receives the rest (the paper's
cryptographically guaranteed economic incentive).
"""

from __future__ import annotations

from ..constants import (
    DEFAULT_MEMBERSHIP_STAKE_WEI,
    DEFAULT_MERKLE_DEPTH,
    DEFAULT_SLASH_BURN_FRACTION,
)
from ..crypto.field import Fr
from ..crypto.hashing import hash1, hash2_int
from ..crypto.merkle import zero_hashes_int
from ..crypto.slot_index import PackedFieldList
from ..errors import ContractError
from .chain import Contract, TxContext


class MembershipContractBase(Contract):
    """Staking, slashing economics and views shared by both designs."""

    def __init__(
        self,
        address: str,
        stake_wei: int = DEFAULT_MEMBERSHIP_STAKE_WEI,
        burn_fraction: float = DEFAULT_SLASH_BURN_FRACTION,
    ) -> None:
        super().__init__(address)
        self.stake_wei = stake_wei
        self.burn_fraction = burn_fraction

    def _check_stake(self, ctx: TxContext) -> None:
        ctx.require(
            ctx.value >= self.stake_wei,
            f"stake of {self.stake_wei} wei required, got {ctx.value}",
        )

    def _payout_slash(self, ctx: TxContext) -> None:
        """Burn part of the slashed stake, reward the reporter with the rest."""
        burn = int(self.stake_wei * self.burn_fraction)
        reward = self.stake_wei - burn
        ctx.burn(burn)
        ctx.transfer(ctx.sender, reward)

    # -- gas-free views (off-chain reads) -------------------------------------

    def member_count(self) -> int:
        return self.storage.get("count", 0)


class MembershipRegistry(MembershipContractBase):
    """Paper design: flat ordered list of public keys; tree off-chain.

    Storage layout::

        "count"              -> number of slots ever assigned
        ("member", i)        -> pk at slot i (0 when slashed)
        ("index_of", pk)     -> i + 1 (0 means not a member)

    ``register`` and ``slash`` each touch a constant number of slots,
    independent of the group size — the paper's constant-complexity
    claim.

    A deployment may additionally carry a *genesis member list*
    (:meth:`genesis_register`): pre-registered public keys baked into
    the deployment state, held as ordinary Python state rather than
    per-key storage slots so that a million-identity genesis does not
    put a million entries into the storage dict every transaction
    snapshots for revert. Genesis members occupy leaf slots
    ``0 .. n-1``; transactional registrations continue after them.
    The list is one :class:`~repro.crypto.slot_index.PackedFieldList`
    (32 B per member until deploy drops its buffer, plus 8 B of index),
    the same object the seed event announces and the replicas' tree reads.
    """

    def __init__(
        self,
        address: str,
        stake_wei: int = DEFAULT_MEMBERSHIP_STAKE_WEI,
        burn_fraction: float = DEFAULT_SLASH_BURN_FRACTION,
    ) -> None:
        super().__init__(address, stake_wei, burn_fraction)
        #: Deploy-time member list (immutable; slashes are recorded in
        #: ("genesis_removed", index) storage slots instead).
        self._genesis_pks = PackedFieldList()

    def genesis_register(self, pks) -> int:
        """Bake ``pks`` into the deployment as pre-registered members.

        Deploy-time only (before any transaction): the constructor-
        style equivalent of ``n`` register calls, with the stakes
        funded into the contract as genesis supply. The caller must
        announce the batch to peers with one
        ``chain.seed_event(address, "MembersRegistered", pks=...)``.
        Returns the number of members registered.
        """
        if self.storage.get("count", 0) or self._genesis_pks:
            raise ContractError(
                "genesis registration requires an empty registry"
            )
        pks = PackedFieldList.of(pks)
        if pks.index.first(0) is not None:
            raise ContractError("pk must be non-zero")
        repeat = pks.index.first_repeat
        if repeat is not None:
            raise ContractError(f"duplicate genesis pk at slot {repeat}")
        self._genesis_pks = pks
        if pks:
            self.storage["count"] = len(pks)
        self.balance += self.stake_wei * len(pks)
        return len(pks)

    def _genesis_slot(self, pk: int):
        """Live genesis slot of ``pk``, or None (absent or slashed)."""
        index = self._genesis_pks.index.first(pk)
        if index is None or self.storage.get(("genesis_removed", index), 0):
            return None
        return index

    def register(self, ctx: TxContext, pk: int) -> int:
        """Join the group by staking; returns the assigned leaf index."""
        self._check_stake(ctx)
        ctx.require(pk != 0, "pk must be non-zero")
        existing = ctx.sload(("index_of", pk))
        ctx.require(
            existing == 0 and self._genesis_slot(pk) is None,
            "pk already registered",
        )
        index = ctx.sload("count")
        ctx.sstore(("member", index), pk)
        ctx.sstore(("index_of", pk), index + 1)
        ctx.sstore("count", index + 1)
        ctx.emit("MemberRegistered", pk=pk, index=index)
        return index

    def slash(self, ctx: TxContext, sk: int) -> int:
        """Remove the member whose secret key is ``sk``; pay the reporter.

        The contract recomputes ``pk = H(sk)`` (one hash) and needs no
        tree update — deletion is the same constant-slot pattern as
        registration. Genesis members are removed by tombstoning their
        slot (their pk list is immutable), still constant-cost.
        """
        ctx.poseidon()  # pk = H(sk) uses the circuit hash
        pk = int(hash1(Fr(sk)))
        stored = ctx.sload(("index_of", pk))
        if stored != 0:
            index = stored - 1
            ctx.sstore(("member", index), 0)
            ctx.sstore(("index_of", pk), 0)
        else:
            index = self._genesis_slot(pk)
            ctx.require(index is not None, "unknown member")
            ctx.sstore(("genesis_removed", index), 1)
        self._payout_slash(ctx)
        ctx.emit("MemberRemoved", pk=pk, index=index)
        return index

    def member_at(self, index: int) -> int:
        """Gas-free view: pk at slot ``index`` (0 when slashed/absent)."""
        if index < len(self._genesis_pks):
            if self.storage.get(("genesis_removed", index), 0):
                return 0
            return self._genesis_pks[index]
        return self.storage.get(("member", index), 0)

    def is_member(self, pk: int) -> bool:
        """Gas-free view used by off-chain tooling."""
        if self.storage.get(("index_of", pk), 0) != 0:
            return True
        return self._genesis_slot(pk) is not None


class OnChainTreeContract(MembershipContractBase):
    """Original RLN design: the Merkle tree is contract storage.

    Every insertion/deletion recomputes the root path: ``depth`` hashes,
    ``depth`` sibling SLOADs and ``depth + 1`` SSTOREs — logarithmic in
    the group capacity, which is exactly the cost the paper's registry
    design eliminates.

    Storage layout::

        "count"          -> number of slots ever assigned
        ("node", h, i)   -> tree node at height h, index i (0 = zero hash)
        ("index_of", pk) -> i + 1
        "root"           -> current tree root
    """

    def __init__(
        self,
        address: str,
        depth: int = DEFAULT_MERKLE_DEPTH,
        stake_wei: int = DEFAULT_MEMBERSHIP_STAKE_WEI,
        burn_fraction: float = DEFAULT_SLASH_BURN_FRACTION,
    ) -> None:
        super().__init__(address, stake_wei, burn_fraction)
        self.depth = depth
        #: Precomputed in the contract bytecode — free to read.
        self._zeros = list(zero_hashes_int(depth))

    def register(self, ctx: TxContext, pk: int) -> int:
        self._check_stake(ctx)
        ctx.require(pk != 0, "pk must be non-zero")
        existing = ctx.sload(("index_of", pk))
        ctx.require(existing == 0, "pk already registered")
        index = ctx.sload("count")
        ctx.require(index < (1 << self.depth), "tree is full")
        self._update_leaf(ctx, index, pk)
        ctx.sstore(("index_of", pk), index + 1)
        ctx.sstore("count", index + 1)
        ctx.emit("MemberRegistered", pk=pk, index=index)
        return index

    def slash(self, ctx: TxContext, sk: int) -> int:
        ctx.poseidon()
        pk = int(hash1(Fr(sk)))
        stored = ctx.sload(("index_of", pk))
        ctx.require(stored != 0, "unknown member")
        index = stored - 1
        self._update_leaf(ctx, index, 0)  # logarithmic again
        ctx.sstore(("index_of", pk), 0)
        self._payout_slash(ctx)
        ctx.emit("MemberRemoved", pk=pk, index=index)
        return index

    def _update_leaf(self, ctx: TxContext, index: int, value: int) -> None:
        """Write a leaf and rehash the path to the root — O(depth) gas."""
        ctx.sstore(("node", 0, index), value)
        node = value
        node_index = index
        for height in range(self.depth):
            sibling_index = node_index ^ 1
            sibling = ctx.sload(("node", height, sibling_index))
            if sibling == 0:
                sibling = self._zeros[height]
            ctx.poseidon()
            if node_index & 1:
                node = hash2_int(sibling, node)
            else:
                node = hash2_int(node, sibling)
            node_index //= 2
            ctx.sstore(("node", height + 1, node_index), node)
        ctx.sstore("root", node)

    def root(self) -> int:
        """Gas-free view of the stored root (empty-tree root if unset)."""
        return self.storage.get("root", self._zeros[self.depth])

    def is_member(self, pk: int) -> bool:
        return self.storage.get(("index_of", pk), 0) != 0
