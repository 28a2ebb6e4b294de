"""Single-node blockchain simulation.

Provides what Waku-RLN-Relay needs from Ethereum and nothing more:

* externally-owned accounts with ether balances;
* contracts (Python objects) invoked through metered transactions;
* a mempool and a block producer with a configurable block interval,
  so the "messages must be mined before being visible" comparison of
  Section III can be simulated;
* an append-only event log that peers poll to synchronise their local
  membership trees ("the membership contract emits update events").

Two execution styles are supported: :meth:`Blockchain.transact` queues a
transaction and executes it at the next :meth:`mine_block` (faithful
latency), while :meth:`Blockchain.call_now` mines immediately (handy in
unit tests and gas measurements, where only costs matter).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..crypto.digests import blake2b
from ..errors import ChainError, ContractError
from .gas import DEFAULT_GAS_SCHEDULE, GasMeter, GasSchedule

#: One replicated chain mutation: ``(kind, order_key, payload)`` where
#: ``kind`` is ``"tx"`` (payload: a :class:`Transaction`) or
#: ``"transfer"`` (payload: ``(sender, to, amount)``) and ``order_key``
#: is the partition-invariant ``(time, origin, seq)`` the parallel
#: kernel assigns. Plain tuples so ops pickle across worker pipes.
ReplicaOp = Tuple[str, Tuple[float, str, int], Any]


def _canonical_tx_hash(origin: str, seq: int) -> int:
    """Deterministic tx hash derived from the op's origin key.

    Replicas executing the same op stream must agree on every
    ``tx_hash`` (receipts are looked up by it), and forked workers
    cannot share the process-local counter the serial chain uses.
    """
    digest = blake2b(
        f"tx:{origin}:{seq}".encode(), digest_size=8
    ).digest()
    # Keep it within a signed 64-bit integer: consumers persist tx
    # hashes in sqlite (the watchtower evidence store).
    return int.from_bytes(digest, "big") >> 1


@dataclass(slots=True)
class Account:
    """An externally-owned account."""

    address: str
    balance: int = 0
    nonce: int = 0


@dataclass(frozen=True)
class Event:
    """One contract log entry."""

    name: str
    args: Dict[str, Any]
    contract: str
    block_number: int
    log_index: int


@dataclass(slots=True)
class Receipt:
    """Outcome of one executed transaction."""

    tx_hash: int
    success: bool
    gas_used: int
    block_number: int
    return_value: Any = None
    error: Optional[str] = None
    events: Tuple[Event, ...] = ()


@dataclass
class Transaction:
    """A queued contract call."""

    sender: str
    contract: str
    method: str
    args: Tuple[Any, ...]
    value: int = 0
    calldata_bytes: int = 68
    tx_hash: int = field(default_factory=itertools.count().__next__)
    #: Simulation time when the tx entered the mempool (for latency stats).
    submitted_at: float = 0.0


class TxContext:
    """Execution context handed to contract methods.

    Wraps the gas meter, value transfer and event emission so contract
    code reads like Solidity: ``ctx.sload``, ``ctx.sstore``,
    ``ctx.emit``, ``ctx.transfer``, ``ctx.burn``, ``ctx.require``.
    """

    def __init__(
        self,
        chain: "Blockchain",
        contract: "Contract",
        sender: str,
        value: int,
        meter: GasMeter,
    ) -> None:
        self.chain = chain
        self.contract = contract
        self.sender = sender
        self.value = value
        self.meter = meter
        self.events: List[Event] = []

    # -- storage ------------------------------------------------------------

    def sload(self, slot: Any) -> Any:
        self.meter.charge_sload((self.contract.address, slot))
        return self.contract.storage.get(slot, 0)

    def sstore(self, slot: Any, value: Any) -> None:
        was = self.contract.storage.get(slot, 0)
        was_zero = was == 0
        now_zero = value == 0
        self.meter.charge_sstore((self.contract.address, slot), was_zero, now_zero)
        if now_zero:
            self.contract.storage.pop(slot, None)
        else:
            self.contract.storage[slot] = value

    # -- environment -----------------------------------------------------------

    def poseidon(self) -> None:
        """Charge for one zk-friendly (circuit) hash evaluated on-chain."""
        self.meter.charge(self.meter.schedule.poseidon_hash)

    def emit(self, name: str, **args: Any) -> None:
        data_bytes = 32 * len(args)
        self.meter.charge(self.meter.schedule.log_cost(1 + len(args), data_bytes))
        self.events.append(
            Event(
                name=name,
                args=args,
                contract=self.contract.address,
                block_number=self.chain.block_number + 1,
                log_index=-1,  # assigned when the block is sealed
            )
        )

    def transfer(self, to: str, amount: int) -> None:
        """Move ether from the contract's balance to ``to``."""
        self.meter.charge(self.meter.schedule.call_value_transfer)
        if self.contract.balance < amount:
            raise ContractError("contract balance too low for transfer")
        self.contract.balance -= amount
        self.chain.get_account(to).balance += amount

    def burn(self, amount: int) -> None:
        """Destroy ether held by the contract (send to the zero address)."""
        if self.contract.balance < amount:
            raise ContractError("contract balance too low for burn")
        self.contract.balance -= amount
        self.chain.burnt_wei += amount

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            raise ContractError(message)


class Contract:
    """Base class for simulated contracts.

    Subclasses implement public methods taking ``(ctx, *args)``; storage
    access must go through ``ctx`` so gas is metered.
    """

    def __init__(self, address: str) -> None:
        self.address = address
        self.storage: Dict[Any, Any] = {}
        self.balance = 0


@dataclass
class Block:
    number: int
    timestamp: float
    receipts: Tuple[Receipt, ...]


class Blockchain:
    """The simulated chain: accounts, contracts, mempool, blocks, logs."""

    def __init__(
        self,
        schedule: GasSchedule = DEFAULT_GAS_SCHEDULE,
        block_interval: float = 13.0,
    ) -> None:
        self.schedule = schedule
        self.block_interval = block_interval
        self.accounts: Dict[str, Account] = {}
        self.contracts: Dict[str, Contract] = {}
        self.mempool: List[Transaction] = []
        self.blocks: List[Block] = []
        self.event_log: List[Event] = []
        self.receipts: Dict[int, Receipt] = {}
        self.burnt_wei = 0
        #: Replica mode (parallel full-stack runs): writes are queued
        #: to an outbox instead of mutating state; the globally ordered
        #: op stream is applied identically on every replica at each
        #: barrier (see :meth:`enter_replica_mode`).
        self._replica = False
        self._key_source: Optional[
            Callable[[], Tuple[float, str, int]]
        ] = None
        self._outbox: List[ReplicaOp] = []
        self._next_block_time = block_interval

    # -- accounts ------------------------------------------------------------

    def create_account(self, address: str, balance: int = 0) -> Account:
        if address in self.accounts:
            raise ChainError(f"account {address!r} already exists")
        account = Account(address=address, balance=balance)
        self.accounts[address] = account
        return account

    def get_account(self, address: str) -> Account:
        if address not in self.accounts:
            raise ChainError(f"unknown account {address!r}")
        return self.accounts[address]

    # -- contracts -------------------------------------------------------------

    def deploy(self, contract: Contract) -> Contract:
        if contract.address in self.contracts:
            raise ChainError(f"contract {contract.address!r} already deployed")
        self.contracts[contract.address] = contract
        return contract

    def seed_event(self, contract: str, name: str, **args: Any) -> Event:
        """Append a deploy-time log entry (genesis state, not a tx).

        State baked into a deployment before the chain runs — e.g. a
        pre-registered membership list — still has to reach peers
        through the one synchronization channel they have, the event
        log; a seed event is that announcement. Only valid before any
        transaction has been queued or mined, so seeded entries are a
        strict prefix of the log on every honest replica.
        """
        if contract not in self.contracts:
            raise ChainError(f"unknown contract {contract!r}")
        if self.blocks or self.mempool or self._replica:
            raise ChainError(
                "seed events must precede every transaction and block"
            )
        event = Event(
            name=name,
            args=dict(args),
            contract=contract,
            block_number=0,
            log_index=len(self.event_log),
        )
        self.event_log.append(event)
        return event

    # -- transaction submission ---------------------------------------------------

    @property
    def block_number(self) -> int:
        return len(self.blocks)

    def transact(
        self,
        sender: str,
        contract: str,
        method: str,
        *args: Any,
        value: int = 0,
        calldata_bytes: int = 68,
        submitted_at: float = 0.0,
    ) -> Transaction:
        """Queue a transaction; it executes at the next mined block."""
        if contract not in self.contracts:
            raise ChainError(f"unknown contract {contract!r}")
        self.get_account(sender)  # must exist
        tx = Transaction(
            sender=sender,
            contract=contract,
            method=method,
            args=args,
            value=value,
            calldata_bytes=calldata_bytes,
            submitted_at=submitted_at,
        )
        if self._replica:
            # Replica mode: the tx is not locally pending — it joins
            # the global op stream at the next barrier, with a hash
            # every replica derives identically from the order key.
            key = self._key_source()
            tx.tx_hash = _canonical_tx_hash(key[1], key[2])
            self._outbox.append(("tx", key, tx))
            return tx
        self.mempool.append(tx)
        return tx

    def call_now(
        self,
        sender: str,
        contract: str,
        method: str,
        *args: Any,
        value: int = 0,
        calldata_bytes: int = 68,
    ) -> Receipt:
        """Submit and immediately mine a single-transaction block."""
        if self._replica:
            raise ChainError(
                "call_now bypasses the barrier op stream; replicas "
                "must transact and wait for the next barrier block"
            )
        tx = self.transact(
            sender, contract, method, *args,
            value=value, calldata_bytes=calldata_bytes,
        )
        self.mine_block()
        return self.receipts[tx.tx_hash]

    # -- block production ------------------------------------------------------------

    def mine_block(self, timestamp: Optional[float] = None) -> Block:
        """Execute every pending transaction into a new block."""
        if timestamp is None:
            timestamp = self.block_number * self.block_interval
        receipts = tuple(self._execute(tx) for tx in self.mempool)
        self.mempool.clear()
        block = Block(
            number=self.block_number, timestamp=timestamp, receipts=receipts
        )
        self.blocks.append(block)
        return block

    def _execute(self, tx: Transaction) -> Receipt:
        contract = self.contracts[tx.contract]
        sender = self.get_account(tx.sender)
        meter = GasMeter(self.schedule)
        meter.charge(self.schedule.tx_base)
        meter.charge(self.schedule.calldata_cost(tx.calldata_bytes))

        ctx = TxContext(self, contract, tx.sender, tx.value, meter)
        handler: Optional[Callable] = getattr(contract, tx.method, None)
        success = True
        return_value = None
        error = None
        balance_before = sender.balance
        contract_balance_before = contract.balance
        burnt_before = self.burnt_wei
        storage_before = dict(contract.storage)
        try:
            if handler is None or tx.method.startswith("_"):
                raise ContractError(f"no such method {tx.method!r}")
            if sender.balance < tx.value:
                raise ContractError("insufficient balance for msg.value")
            sender.balance -= tx.value
            contract.balance += tx.value
            return_value = handler(ctx, *tx.args)
        except ContractError as exc:
            # Revert: restore balances and storage, keep the gas.
            success = False
            error = str(exc)
            sender.balance = balance_before
            contract.balance = contract_balance_before
            self.burnt_wei = burnt_before
            contract.storage.clear()
            contract.storage.update(storage_before)
            ctx.events.clear()
        gas_used = meter.finalize()
        events = []
        for event in ctx.events:
            sealed = Event(
                name=event.name,
                args=event.args,
                contract=event.contract,
                block_number=self.block_number,
                log_index=len(self.event_log),
            )
            self.event_log.append(sealed)
            events.append(sealed)
        receipt = Receipt(
            tx_hash=tx.tx_hash,
            success=success,
            gas_used=gas_used,
            block_number=self.block_number,
            return_value=return_value,
            error=error,
            events=tuple(events),
        )
        self.receipts[tx.tx_hash] = receipt
        return receipt

    # -- value transfers --------------------------------------------------------------

    def transfer_value(self, sender: str, to: str, amount: int) -> None:
        """Move ether directly between externally-owned accounts.

        Plain value sends (delegation fees, watchtower payouts) — no
        contract, no mempool latency, no gas modelled; both accounts
        must already exist. In replica mode the send is deferred into
        the barrier op stream so every replica applies it at the same
        point of the global order.
        """
        if amount < 0:
            raise ChainError("cannot transfer a negative amount")
        self.get_account(sender)
        self.get_account(to)
        if self._replica:
            key = self._key_source()
            self._outbox.append(("transfer", key, (sender, to, amount)))
            return
        self._apply_transfer(sender, to, amount)

    def _apply_transfer(self, sender: str, to: str, amount: int) -> None:
        src = self.get_account(sender)
        dst = self.get_account(to)
        if src.balance < amount:
            raise ChainError(
                f"account {sender!r} holds {src.balance} wei; "
                f"cannot transfer {amount}"
            )
        src.balance -= amount
        dst.balance += amount

    # -- barrier replication ----------------------------------------------------------

    def enter_replica_mode(
        self,
        key_source: Callable[[], Tuple[float, str, int]],
        first_block_time: Optional[float] = None,
    ) -> None:
        """Switch to window-isolated replica semantics.

        From here on, :meth:`transact`/:meth:`transfer_value` queue
        partition-invariant ops to :meth:`drain_outbox` instead of
        mutating local state, and blocks are produced inside
        :meth:`replica_apply` on the fixed ``block_interval`` grid —
        every replica fed the same globally sorted op stream ends up
        bit-identical (state, receipts, event log, tx hashes).

        ``key_source`` yields ``(time, origin, seq)`` order keys — the
        parallel kernel's ``consume_order_key``. ``first_block_time``
        defaults to ``block_interval``, matching the first firing of
        the legacy periodic miner.
        """
        if self._replica:
            raise ChainError("already in replica mode")
        if self.mempool:
            raise ChainError(
                "cannot enter replica mode with transactions pending; "
                "mine the build-phase mempool first"
            )
        self._replica = True
        self._key_source = key_source
        self._outbox = []
        self._next_block_time = (
            self.block_interval
            if first_block_time is None
            else first_block_time
        )

    def drain_outbox(self) -> List[ReplicaOp]:
        """Ops queued locally since the last barrier (cleared)."""
        ops, self._outbox = self._outbox, []
        return ops

    @staticmethod
    def order_ops(ops: List[ReplicaOp]) -> List[ReplicaOp]:
        """The canonical global order: sort by ``(time, origin, seq)``."""
        return sorted(ops, key=lambda op: op[1])

    def replica_apply(self, ops: List[ReplicaOp], t_end: float) -> None:
        """Apply one barrier's globally ordered ops up to ``t_end``.

        Mining is interleaved on the block grid: a block with
        timestamp ``b`` seals strictly before any op with
        ``time >= b`` applies, so a tx submitted exactly at a block
        time lands in the *next* block — the same rule at every shard
        and worker count. Trailing blocks due by ``t_end`` (the window
        boundary) are mined last, which makes them visible to every
        event of the next window.
        """
        if not self._replica:
            raise ChainError("replica_apply requires replica mode")
        for kind, key, payload in ops:
            while self._next_block_time <= key[0]:
                self.mine_block(timestamp=self._next_block_time)
                self._next_block_time += self.block_interval
            if kind == "tx":
                self.mempool.append(payload)
            elif kind == "transfer":
                self._apply_transfer(*payload)
            else:
                raise ChainError(f"unknown replica op kind {kind!r}")
        while self._next_block_time <= t_end:
            self.mine_block(timestamp=self._next_block_time)
            self._next_block_time += self.block_interval

    # -- log access -----------------------------------------------------------------

    #: Shared zero-allocation result for the (overwhelmingly common)
    #: caught-up poll.
    _NO_EVENTS: Tuple[Event, ...] = ()

    def events_since(self, log_index: int) -> Tuple[Event, ...]:
        """Events with ``log_index >= log_index`` (peer sync polling).

        Returns an immutable view; the hot caught-up case (peers, the
        adversary engine and watchtowers all poll every few simulated
        seconds, events arrive only when a block seals) costs no
        allocation at all.
        """
        log = self.event_log
        if log_index >= len(log):
            return self._NO_EVENTS
        return tuple(log[log_index:])
