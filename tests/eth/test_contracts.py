"""Tests for the two membership-contract designs, incl. the gas claim."""

import random

import pytest

from repro.crypto.field import Fr
from repro.crypto.keys import MembershipKeyPair
from repro.crypto.merkle import MerkleTree
from repro.errors import ContractError
from repro.eth.chain import Blockchain
from repro.eth.contracts import MembershipRegistry, OnChainTreeContract

STAKE = 10**18


def fresh_chain(contract):
    chain = Blockchain()
    chain.deploy(contract)
    for name in ("alice", "bob", "carol"):
        chain.create_account(name, balance=10 * STAKE)
    return chain


def keypair(seed):
    return MembershipKeyPair.generate(random.Random(seed))


class TestMembershipRegistry:
    def setup_method(self):
        self.contract = MembershipRegistry("m", stake_wei=STAKE)
        self.chain = fresh_chain(self.contract)

    def _register(self, sender, pk, value=STAKE):
        return self.chain.call_now(sender, "m", "register", pk, value=value)

    def test_register_assigns_sequential_indices(self):
        r1 = self._register("alice", int(keypair(1).commitment.element))
        r2 = self._register("bob", int(keypair(2).commitment.element))
        assert r1.success and r2.success
        assert r1.return_value == 0
        assert r2.return_value == 1
        assert self.contract.member_count() == 2

    def test_register_emits_event(self):
        pk = int(keypair(1).commitment.element)
        receipt = self._register("alice", pk)
        event = receipt.events[0]
        assert event.name == "MemberRegistered"
        assert event.args == {"pk": pk, "index": 0}

    def test_underfunded_stake_reverts(self):
        receipt = self._register(
            "alice", int(keypair(1).commitment.element), value=STAKE - 1
        )
        assert not receipt.success
        assert "stake" in receipt.error

    def test_duplicate_pk_reverts(self):
        pk = int(keypair(1).commitment.element)
        assert self._register("alice", pk).success
        assert not self._register("bob", pk).success

    def test_zero_pk_reverts(self):
        assert not self._register("alice", 0).success

    def test_stake_held_by_contract(self):
        self._register("alice", int(keypair(1).commitment.element))
        assert self.contract.balance == STAKE

    def test_slash_removes_and_pays(self):
        pair = keypair(3)
        self._register("alice", int(pair.commitment.element))
        bob_before = self.chain.get_account("bob").balance
        receipt = self.chain.call_now(
            "bob", "m", "slash", int(pair.secret.element)
        )
        assert receipt.success
        assert not self.contract.is_member(int(pair.commitment.element))
        # Reward: stake minus the burnt half.
        assert self.chain.get_account("bob").balance == bob_before + STAKE // 2
        assert self.chain.burnt_wei == STAKE // 2
        assert receipt.events[0].name == "MemberRemoved"

    def test_slash_unknown_member_reverts(self):
        receipt = self.chain.call_now("bob", "m", "slash", 12345)
        assert not receipt.success
        assert "unknown member" in receipt.error

    def test_double_slash_reverts(self):
        pair = keypair(4)
        self._register("alice", int(pair.commitment.element))
        assert self.chain.call_now(
            "bob", "m", "slash", int(pair.secret.element)
        ).success
        assert not self.chain.call_now(
            "carol", "m", "slash", int(pair.secret.element)
        ).success

    def test_slash_requires_real_secret(self):
        pair = keypair(5)
        self._register("alice", int(pair.commitment.element))
        # A wrong secret hashes to a different pk -> unknown member.
        receipt = self.chain.call_now(
            "bob", "m", "slash", int(pair.secret.element) + 1
        )
        assert not receipt.success

    def test_registration_gas_constant_in_group_size(self):
        costs = []
        for i in range(60):
            account = f"user{i}"
            self.chain.create_account(account, balance=2 * STAKE)
            receipt = self.chain.call_now(
                account,
                "m",
                "register",
                int(keypair(100 + i).commitment.element),
                value=STAKE,
            )
            costs.append(receipt.gas_used)
        # After the very first insert (which initialises "count"), cost
        # is identical forever — constant complexity.
        assert len(set(costs[1:])) == 1
        assert costs[0] > costs[1]


class TestGenesisRegister:
    """Deploy-time member list: rejection paths of genesis_register and
    of transactions that collide with it (all through the sorted
    pk -> slot index)."""

    def setup_method(self):
        self.contract = MembershipRegistry("m", stake_wei=STAKE)
        self.chain = fresh_chain(self.contract)
        self.pks = [int(keypair(s).commitment.element) for s in range(40, 48)]

    def test_zero_pk_rejected(self):
        self.pks[3] = 0
        with pytest.raises(ContractError, match="non-zero"):
            self.contract.genesis_register(self.pks)
        assert self.contract.member_count() == 0
        assert self.contract.balance == 0

    def test_pks_canonicalise_as_field_elements(self):
        # What reaches the packed list is what Fr makes of the input:
        # the modulus is a zero pk, pk + modulus is a repeat of pk.
        p = Fr.MODULUS
        with pytest.raises(ContractError, match="non-zero"):
            self.contract.genesis_register([*self.pks, p])
        with pytest.raises(
            ContractError, match=r"duplicate genesis pk at slot 8$"
        ):
            self.contract.genesis_register([*self.pks, self.pks[1] + p])
        mixed = [Fr(self.pks[0]), keypair(41).commitment, self.pks[2] - p]
        assert self.contract.genesis_register(mixed) == 3
        for slot in range(3):
            assert self.contract.member_at(slot) == self.pks[slot]
            assert self.contract.is_member(self.pks[slot])
        # Lookups of ints no 32-byte word can hold answer "absent".
        assert not self.contract.is_member(1 << 256)
        assert not self.contract.is_member(-1)

    def test_duplicate_pk_names_the_later_slot(self):
        # Two repeated values; the error names the first slot, in slot
        # order, whose pk already sits in an earlier one.
        self.pks[6] = self.pks[0]
        self.pks[4] = self.pks[5] = self.pks[2]
        with pytest.raises(
            ContractError, match=r"duplicate genesis pk at slot 4$"
        ):
            self.contract.genesis_register(self.pks)
        assert self.contract.member_count() == 0
        assert not self.contract.is_member(self.pks[0])

    def test_second_genesis_call_refused(self):
        assert self.contract.genesis_register(self.pks[:4]) == 4
        with pytest.raises(ContractError, match="empty registry"):
            self.contract.genesis_register(self.pks[4:])
        assert self.contract.member_count() == 4

    def test_genesis_after_a_registration_refused(self):
        assert self.chain.call_now(
            "alice", "m", "register", self.pks[0], value=STAKE
        ).success
        with pytest.raises(ContractError, match="empty registry"):
            self.contract.genesis_register(self.pks[1:])

    def test_register_of_a_genesis_pk_reverts(self):
        self.contract.genesis_register(self.pks)
        for pk in (self.pks[0], self.pks[5], self.pks[-1]):
            receipt = self.chain.call_now(
                "alice", "m", "register", pk, value=STAKE
            )
            assert not receipt.success
            assert "pk already registered" in receipt.error
        # A pk outside the list still registers, after the genesis block.
        receipt = self.chain.call_now(
            "bob", "m", "register",
            int(keypair(99).commitment.element), value=STAKE,
        )
        assert receipt.success
        assert receipt.return_value == len(self.pks)
        assert self.contract.balance == STAKE * (len(self.pks) + 1)

    def test_lookup_agrees_with_the_member_list(self):
        self.contract.genesis_register(self.pks)
        for slot, pk in enumerate(self.pks):
            assert self.contract.is_member(pk)
            assert self.contract.member_at(slot) == pk
        assert not self.contract.is_member(max(self.pks) + 1)
        assert not self.contract.is_member(min(self.pks) - 1)


class TestOnChainTreeContract:
    def setup_method(self):
        self.contract = OnChainTreeContract("m", depth=10, stake_wei=STAKE)
        self.chain = fresh_chain(self.contract)

    def _register(self, sender, pk, value=STAKE):
        return self.chain.call_now(sender, "m", "register", pk, value=value)

    def test_register_and_slash_work(self):
        pair = keypair(6)
        receipt = self._register("alice", int(pair.commitment.element))
        assert receipt.success
        assert self.contract.is_member(int(pair.commitment.element))
        receipt = self.chain.call_now(
            "bob", "m", "slash", int(pair.secret.element)
        )
        assert receipt.success
        assert not self.contract.is_member(int(pair.commitment.element))

    def test_root_matches_offchain_tree(self):
        pairs = [keypair(i) for i in range(5)]
        for i, pair in enumerate(pairs):
            account = f"user{i}"
            self.chain.create_account(account, balance=2 * STAKE)
            self.chain.call_now(
                account,
                "m",
                "register",
                int(pair.commitment.element),
                value=STAKE,
            )
        tree = MerkleTree(10)
        for pair in pairs:
            tree.insert(pair.commitment.element)
        assert self.contract.root() == int(tree.root)

    def test_empty_root_matches_offchain(self):
        assert self.contract.root() == int(MerkleTree(10).root)

    def test_tree_full_reverts(self):
        small = OnChainTreeContract("tiny", depth=1, stake_wei=STAKE)
        chain = fresh_chain(small)
        assert chain.call_now(
            "alice", "tiny", "register",
            int(keypair(7).commitment.element), value=STAKE,
        ).success
        assert chain.call_now(
            "alice", "tiny", "register",
            int(keypair(8).commitment.element), value=STAKE,
        ).success
        assert not chain.call_now(
            "alice", "tiny", "register",
            int(keypair(9).commitment.element), value=STAKE,
        ).success


class TestGasComparison:
    """The paper's Section III claim: registry is ~an order of magnitude
    cheaper because it avoids logarithmically many storage writes."""

    def _registration_cost(self, contract):
        chain = fresh_chain(contract)
        receipt = chain.call_now(
            "alice",
            contract.address,
            "register",
            int(keypair(42).commitment.element),
            value=STAKE,
        )
        assert receipt.success
        return receipt.gas_used

    def test_registry_much_cheaper_than_tree(self):
        registry_cost = self._registration_cost(
            MembershipRegistry("m", stake_wei=STAKE)
        )
        tree_cost = self._registration_cost(
            OnChainTreeContract("m", depth=20, stake_wei=STAKE)
        )
        assert tree_cost / registry_cost > 5

    def test_tree_cost_grows_with_depth(self):
        shallow = self._registration_cost(
            OnChainTreeContract("m", depth=10, stake_wei=STAKE)
        )
        deep = self._registration_cost(
            OnChainTreeContract("m", depth=30, stake_wei=STAKE)
        )
        assert deep > shallow

    def test_registry_cost_independent_of_depth_parameter(self):
        # The registry has no tree at all; the claim is structural.
        cost = self._registration_cost(MembershipRegistry("m", stake_wei=STAKE))
        assert cost < 100_000
