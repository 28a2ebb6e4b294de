"""Tests for the blockchain simulation and gas metering."""

import pickle

import pytest

from repro.errors import ChainError
from repro.eth.chain import Blockchain, Contract
from repro.eth.gas import DEFAULT_GAS_SCHEDULE, GasMeter


class Counter(Contract):
    """Toy contract: a stored counter plus revert/transfer helpers."""

    def bump(self, ctx):
        value = ctx.sload("count")
        ctx.sstore("count", value + 1)
        ctx.emit("Bumped", count=value + 1)
        return value + 1

    def clear(self, ctx):
        ctx.sstore("count", 0)

    def fail(self, ctx):
        ctx.sstore("count", 999)
        ctx.require(False, "always reverts")

    def pay_out(self, ctx, to, amount):
        ctx.transfer(to, amount)


@pytest.fixture
def chain():
    chain = Blockchain()
    chain.create_account("alice", balance=10**18)
    chain.deploy(Counter("counter"))
    return chain


class TestAccounts:
    def test_create_and_get(self, chain):
        account = chain.get_account("alice")
        assert account.balance == 10**18

    def test_duplicate_account_rejected(self, chain):
        with pytest.raises(ChainError):
            chain.create_account("alice")

    def test_unknown_account_rejected(self, chain):
        with pytest.raises(ChainError):
            chain.get_account("ghost")


class TestSlottedRecords:
    """Accounts and receipts are slotted (no per-record ``__dict__``)
    and still pickle, as forked workers' barrier traffic needs."""

    def test_account_and_receipt_round_trip(self, chain):
        receipt = chain.call_now("alice", "counter", "bump")
        account = chain.get_account("alice")
        for record in (account, receipt):
            assert not hasattr(record, "__dict__")
            assert pickle.loads(pickle.dumps(record)) == record
        assert receipt.events and receipt.events[0].name == "Bumped"


class TestExecution:
    def test_call_now_executes(self, chain):
        receipt = chain.call_now("alice", "counter", "bump")
        assert receipt.success
        assert receipt.return_value == 1
        assert chain.contracts["counter"].storage["count"] == 1

    def test_transact_waits_for_block(self, chain):
        chain.transact("alice", "counter", "bump")
        assert chain.contracts["counter"].storage.get("count") is None
        chain.mine_block()
        assert chain.contracts["counter"].storage["count"] == 1

    def test_unknown_method_fails(self, chain):
        receipt = chain.call_now("alice", "counter", "nope")
        assert not receipt.success
        assert "no such method" in receipt.error

    def test_private_method_not_callable(self, chain):
        receipt = chain.call_now("alice", "counter", "_check_stake")
        assert not receipt.success

    def test_unknown_contract_rejected(self, chain):
        with pytest.raises(ChainError):
            chain.transact("alice", "ghost", "bump")

    def test_revert_restores_storage_and_value(self, chain):
        balance_before = chain.get_account("alice").balance
        receipt = chain.call_now("alice", "counter", "fail", value=100)
        assert not receipt.success
        assert chain.contracts["counter"].storage.get("count") is None
        assert chain.get_account("alice").balance == balance_before
        assert receipt.events == ()

    def test_value_transfer(self, chain):
        chain.create_account("bob")
        chain.call_now("alice", "counter", "bump", value=500)
        assert chain.contracts["counter"].balance == 500
        receipt = chain.call_now("alice", "counter", "pay_out", "bob", 200)
        assert receipt.success
        assert chain.get_account("bob").balance == 200
        assert chain.contracts["counter"].balance == 300

    def test_insufficient_value_reverts(self, chain):
        chain.get_account("alice").balance = 10
        receipt = chain.call_now("alice", "counter", "bump", value=100)
        assert not receipt.success


class TestEvents:
    def test_events_recorded_in_order(self, chain):
        chain.call_now("alice", "counter", "bump")
        chain.call_now("alice", "counter", "bump")
        events = chain.events_since(0)
        assert [e.name for e in events] == ["Bumped", "Bumped"]
        assert [e.log_index for e in events] == [0, 1]
        assert events[1].args["count"] == 2

    def test_events_since_offset(self, chain):
        chain.call_now("alice", "counter", "bump")
        chain.call_now("alice", "counter", "bump")
        assert len(chain.events_since(1)) == 1

    def test_receipt_carries_events(self, chain):
        receipt = chain.call_now("alice", "counter", "bump")
        assert receipt.events[0].name == "Bumped"


class TestGasAccounting:
    def test_tx_base_charged(self, chain):
        receipt = chain.call_now("alice", "counter", "bump")
        assert receipt.gas_used > DEFAULT_GAS_SCHEDULE.tx_base

    def test_fresh_sstore_more_expensive_than_update(self, chain):
        first = chain.call_now("alice", "counter", "bump")
        second = chain.call_now("alice", "counter", "bump")
        assert first.gas_used > second.gas_used

    def test_clear_refund(self, chain):
        chain.call_now("alice", "counter", "bump")
        receipt = chain.call_now("alice", "counter", "clear")
        # The refund is capped at 1/5 of used gas, so the clear tx is
        # cheaper than the same tx without a refund would be.
        meter = GasMeter()
        meter.charge(100_000)
        meter.refund = 1_000_000
        assert meter.finalize() == 80_000
        assert receipt.success

    def test_warm_slot_cheaper(self):
        meter = GasMeter()
        meter.charge_sload("slot")
        cold = meter.used
        meter.charge_sload("slot")
        assert meter.used - cold == DEFAULT_GAS_SCHEDULE.sload_warm


class TestBlocks:
    def test_block_timestamps_default(self, chain):
        chain.mine_block()
        chain.mine_block()
        assert chain.blocks[1].timestamp == chain.block_interval

    def test_mempool_cleared(self, chain):
        chain.transact("alice", "counter", "bump")
        chain.mine_block()
        assert chain.mempool == []
        assert chain.block_number == 1
