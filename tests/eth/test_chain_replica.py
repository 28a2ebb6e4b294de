"""Barrier-synced chain replicas: the edge cases that decide whether
parallel workers can ever disagree about chain state.

Covers the op-stream protocol itself (queueing, canonical hashes, the
mode guards), the block-grid boundary rule, replica convergence under
different gather orders, worker restart from a committed cursor
position, and cross-shard slash-race settlement.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.field import Fr
from repro.crypto.hashing import hash1
from repro.errors import ChainError
from repro.eth.chain import Blockchain, _canonical_tx_hash
from repro.eth.contracts import MembershipRegistry
from repro.eth.cursor import EventCursor
from repro.scenarios.parallel import chain_fingerprint

STAKE = 1_000
WEALTH = 10 * STAKE


class KeySource:
    """A hand-cranked ``consume_order_key``: tests set ``now`` and
    ``origin`` to stage ops at exact times from chosen shards; the
    per-origin counter mirrors the kernel's."""

    def __init__(self):
        self.now = 0.0
        self.origin = "build"
        self._seq = {}

    def __call__(self):
        seq = self._seq.get(self.origin, 0)
        self._seq[self.origin] = seq + 1
        return (self.now, self.origin, seq)


def make_chain(block_interval=5.0):
    chain = Blockchain(block_interval=block_interval)
    chain.deploy(MembershipRegistry("registry", stake_wei=STAKE))
    for name in ("alice", "bob", "carol"):
        chain.create_account(name, balance=WEALTH)
    return chain


def enter(chain):
    ks = KeySource()
    chain.enter_replica_mode(ks)
    return ks


class TestSeededGenesisFingerprint:
    def test_replicas_built_apart_agree_on_a_seeded_member_list(self):
        # Each worker derives its own genesis list; the fingerprint
        # hashes repr(event.args), so the list's repr must be its
        # content (an object repr "diverges" every pair of replicas),
        # and short (a million ints print as ~77 MB per call).
        from repro.core.protocol import genesis_commitments

        def seeded(seed):
            chain = make_chain()
            pks = genesis_commitments(300, seed=seed)
            chain.contracts["registry"].genesis_register(pks)
            event = chain.seed_event("registry", "MembersRegistered", pks=pks)
            return chain, event

        (one, event), (two, twin), (other, _) = seeded(7), seeded(7), seeded(8)
        assert event.args["pks"] is not twin.args["pks"]
        assert event == twin and len(repr(event.args)) < 100
        assert chain_fingerprint(one) == chain_fingerprint(two)
        assert chain_fingerprint(one) != chain_fingerprint(other)


class TestReplicaProtocol:
    def test_transact_queues_op_instead_of_mutating(self):
        chain = make_chain()
        ks = enter(chain)
        ks.now, ks.origin = 1.0, "alice"
        tx = chain.transact(
            "alice", "registry", "register", 7, value=STAKE
        )
        assert chain.mempool == []  # nothing locally pending
        assert chain.get_account("alice").balance == WEALTH
        ops = chain.drain_outbox()
        assert ops == [("tx", (1.0, "alice", 0), tx)]
        assert chain.drain_outbox() == []  # drained

    def test_canonical_hash_is_derived_from_key_and_sqlite_safe(self):
        chain = make_chain()
        ks = enter(chain)
        ks.origin = "alice"
        tx = chain.transact("alice", "registry", "register", 7, value=STAKE)
        # Every replica recomputes the same hash from (origin, seq) —
        # no shared counter to race on.
        assert tx.tx_hash == _canonical_tx_hash("alice", 0)
        # Watchtower stores persist hashes in sqlite (signed 64-bit).
        assert 0 < tx.tx_hash < 2**63

    def test_transfer_is_deferred_to_the_barrier(self):
        chain = make_chain()
        ks = enter(chain)
        ks.now, ks.origin = 2.0, "alice"
        chain.transfer_value("alice", "bob", 100)
        assert chain.get_account("bob").balance == WEALTH  # not yet
        chain.replica_apply(chain.order_ops(chain.drain_outbox()), 2.5)
        assert chain.get_account("bob").balance == WEALTH + 100
        assert chain.get_account("alice").balance == WEALTH - 100

    def test_call_now_is_forbidden(self):
        chain = make_chain()
        enter(chain)
        with pytest.raises(ChainError, match="barrier"):
            chain.call_now("alice", "registry", "register", 7, value=STAKE)

    def test_mode_guards(self):
        chain = make_chain()
        chain.transact("alice", "registry", "register", 7, value=STAKE)
        with pytest.raises(ChainError, match="pending"):
            chain.enter_replica_mode(KeySource())
        chain.mine_block()
        chain.enter_replica_mode(KeySource())
        with pytest.raises(ChainError, match="already"):
            chain.enter_replica_mode(KeySource())
        fresh = make_chain()
        with pytest.raises(ChainError, match="replica mode"):
            fresh.replica_apply([], 1.0)


class TestBlockGridBoundary:
    def test_op_exactly_on_block_boundary_lands_in_next_block(self):
        """A block with timestamp ``b`` seals strictly before ops at
        ``time >= b`` — the window-boundary rule every shard count must
        agree on. interval=5: the t=4.9 tx mines in the block sealed
        at t=5, the t=5.0 tx waits for the block sealed at t=10."""
        chain = make_chain(block_interval=5.0)
        ks = enter(chain)
        ks.now, ks.origin = 4.9, "alice"
        early = chain.transact(
            "alice", "registry", "register", 11, value=STAKE
        )
        ks.now, ks.origin = 5.0, "bob"
        boundary = chain.transact(
            "bob", "registry", "register", 22, value=STAKE
        )
        chain.replica_apply(chain.order_ops(chain.drain_outbox()), 10.0)

        assert [b.timestamp for b in chain.blocks] == [5.0, 10.0]
        assert chain.receipts[early.tx_hash].block_number == 0
        assert chain.receipts[boundary.tx_hash].block_number == 1
        assert chain.receipts[early.tx_hash].success
        assert chain.receipts[boundary.tx_hash].success

    def test_trailing_blocks_mine_through_the_window_end(self):
        """Empty windows still advance the grid — block visibility at
        the next barrier cannot depend on whether ops happened."""
        chain = make_chain(block_interval=5.0)
        enter(chain)
        chain.replica_apply([], 21.0)
        assert [b.timestamp for b in chain.blocks] == [5.0, 10.0, 15.0, 20.0]
        chain.replica_apply([], 21.0)  # idempotent for the same barrier
        assert len(chain.blocks) == 4


def _staged_ops():
    """One barrier's worth of ops as three shards would emit them."""
    ops = []
    for origin, pk, t in [("alice", 11, 1.0), ("bob", 22, 1.5),
                          ("carol", 33, 6.0)]:
        chain = make_chain()
        ks = enter(chain)
        ks.now, ks.origin = t, origin
        chain.transact(origin, "registry", "register", pk, value=STAKE)
        ks.now = t + 0.1
        chain.transfer_value(origin, "alice", 10)
        ops.extend(chain.drain_outbox())
    return ops


class TestReplicaConvergence:
    def test_gather_order_is_irrelevant(self):
        """The coordinator gathers worker outboxes in pipe order, which
        differs run to run and worker count to worker count;
        ``order_ops`` must erase that."""
        ops = _staged_ops()
        fingerprints = []
        for shuffle_seed in (1, 2, 3):
            gathered = ops[:]
            random.Random(shuffle_seed).shuffle(gathered)
            replica = make_chain()
            enter(replica)
            replica.replica_apply(replica.order_ops(gathered), 10.0)
            fingerprints.append(chain_fingerprint(replica))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]
        blocks, _burnt, log_len, _digest = fingerprints[0]
        assert blocks == 2 and log_len == 3  # all registers landed

    def test_worker_restart_replays_from_committed_cursor(self):
        """A worker dying mid-window restarts from the last barrier: a
        fresh replica fed the committed op stream reaches the identical
        chain, and an ``EventCursor`` seeded with the crashed worker's
        persisted position sees exactly the not-yet-consumed events —
        no replays, no gaps."""
        ops = Blockchain.order_ops(_staged_ops())
        window1 = [op for op in ops if op[1][0] < 5.0]
        window2 = [op for op in ops if op[1][0] >= 5.0]

        original = make_chain()
        enter(original)
        original.replica_apply(window1, 5.0)
        cursor = EventCursor(original, contract="registry")
        consumed = cursor.catch_up(lambda event: None)
        assert consumed == 2  # both window-1 registrations
        committed = cursor.log_index  # what the store persisted
        original.replica_apply(window2, 10.0)

        # -- crash; a replacement worker rebuilds from the op log --
        restarted = make_chain()
        enter(restarted)
        restarted.replica_apply(window1, 5.0)
        restarted.replica_apply(window2, 10.0)
        assert chain_fingerprint(restarted) == chain_fingerprint(original)

        resumed = EventCursor(restarted, contract="registry", start=committed)
        fresh = resumed.poll()
        assert [e.name for e in fresh] == ["MemberRegistered"]
        assert fresh[0].args["pk"] == 33  # only the window-2 event
        assert resumed.caught_up

    def test_slash_race_settles_identically_on_every_replica(self):
        """Two shards slash the same member in one window. The op
        order — not worker scheduling — picks the winner: the earlier
        ``(time, origin, seq)`` key collects the reward, the loser
        reverts with 'unknown member' on every replica alike."""
        sk = 1234
        pk = int(hash1(Fr(sk)))

        def stage():
            chain = make_chain()
            ks = enter(chain)
            ks.now, ks.origin = 1.0, "alice"
            chain.transact("alice", "registry", "register", pk, value=STAKE)
            ks.now, ks.origin = 6.0, "bob"
            first = chain.transact("bob", "registry", "slash", sk)
            ks.now, ks.origin = 6.0, "carol"
            second = chain.transact("carol", "registry", "slash", sk)
            return chain, first, second

        results = []
        for flip in (False, True):
            chain, first, second = stage()
            ops = chain.drain_outbox()
            if flip:  # the other gather order
                ops.reverse()
            chain.replica_apply(chain.order_ops(ops), 10.0)
            results.append(
                (
                    chain.receipts[first.tx_hash].success,
                    chain.receipts[second.tx_hash].error,
                    chain.get_account("bob").balance,
                    chain.get_account("carol").balance,
                    chain_fingerprint(chain),
                )
            )
        assert results[0] == results[1]
        won, lost_error, bob, carol, _fp = results[0]
        assert won  # "bob" < "carol" in the origin order at equal time
        assert lost_error == "unknown member"
        assert bob > WEALTH  # reward went to the winner...
        assert carol == WEALTH  # ...and only the winner
