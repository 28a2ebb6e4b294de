"""Tests for the watchtower's write-ahead SQLite state store."""

import sqlite3

import pytest

from repro.errors import SimulationError
from repro.watchtower.store import TERMINAL_STATUSES, WatchtowerStore


@pytest.fixture
def store(tmp_path):
    store = WatchtowerStore(str(tmp_path / "wt.sqlite"))
    yield store
    store.close()


def reopened(store):
    """Simulate a crash/restart cycle: close and reconnect."""
    store.close()
    store.open()
    return store


class TestConnectionLifecycle:
    def test_open_is_idempotent(self, store):
        conn = store.conn
        store.open()
        assert store.conn is conn

    def test_closed_store_raises(self, store):
        store.close()
        with pytest.raises(SimulationError):
            store.cursor()

    def test_memory_store_works(self):
        store = WatchtowerStore(":memory:")
        store.commit_cursor(7)
        assert store.cursor() == 7
        store.close()


class TestTornStore:
    """A file SQLite cannot read fails typed, naming the path and
    SQLite's reason, and leaves no connection open behind it."""

    @pytest.fixture
    def connections(self, monkeypatch):
        opened = []
        connect = sqlite3.connect

        def recording(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sqlite3, "connect", recording)
        return opened

    def assert_unreadable(self, path, reason, connections):
        with pytest.raises(SimulationError) as raised:
            WatchtowerStore(str(path))
        assert str(path) in str(raised.value)
        assert reason in str(raised.value)
        assert isinstance(raised.value.__cause__, sqlite3.DatabaseError)
        assert len(connections) == 1
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            connections[0].execute("SELECT 1")

    def test_garbage_file(self, tmp_path, connections):
        path = tmp_path / "wt.sqlite"
        path.write_bytes(b"not a database, " * 256)
        self.assert_unreadable(path, "file is not a database", connections)

    def test_truncated_wal_store(self, tmp_path, connections):
        path = tmp_path / "wt.sqlite"
        store = WatchtowerStore(str(path))
        for epoch in range(200):
            store.record_signal("t", epoch, str(epoch), bytes(200))
        store.close()
        connections.clear()
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        self.assert_unreadable(path, "malformed", connections)


class TestCursor:
    def test_defaults_to_zero(self, store):
        assert store.cursor() == 0

    def test_commit_persists_across_reopen(self, store):
        store.commit_cursor(42)
        assert reopened(store).cursor() == 42

    def test_commit_overwrites(self, store):
        store.commit_cursor(5)
        store.commit_cursor(9)
        assert store.cursor() == 9

    def test_tick_transaction_is_atomic(self, store):
        store.begin()
        store.commit_cursor(3)
        store.put_evidence(11, 22, 1, "t", 0.5)
        store.commit()
        store = reopened(store)
        assert store.cursor() == 3
        assert store.evidence_status(11) == "pending"


class TestSignals:
    def test_first_signal_wins(self, store):
        store.record_signal("t", 4, "99", b"first")
        store.record_signal("t", 4, "99", b"second")
        assert store.signals() == [("t", b"first")]

    def test_deterministic_order(self, store):
        store.record_signal("t", 5, "b", b"3")
        store.record_signal("t", 4, "z", b"2")
        store.record_signal("s", 9, "a", b"1")
        assert [blob for _, blob in store.signals()] == [b"1", b"2", b"3"]

    def test_prune_keeps_window(self, store):
        for epoch in range(10):
            store.record_signal("t", epoch, "n", b"x")
        freed = store.prune_signals(current_epoch=5, thr=2)
        assert freed == 5
        kept = {e for (_, e, *_) in store.conn.execute(
            "SELECT topic, epoch FROM signals"
        ).fetchall()}
        assert kept == {3, 4, 5, 6, 7}

    def test_survives_reopen(self, store):
        store.record_signal("t", 1, "n", b"blob")
        assert reopened(store).signals() == [("t", b"blob")]


class TestEvidenceLifecycle:
    def test_put_then_pending(self, store):
        assert store.put_evidence(7, 70, 2, "t", 1.0)
        assert store.evidence_status(7) == "pending"
        assert store.pending_evidence() == [(7, 70)]
        assert store.unresolved_evidence() == [7]

    def test_duplicate_put_ignored(self, store):
        store.put_evidence(7, 70, 2, "t", 1.0)
        assert not store.put_evidence(7, 71, 3, "t", 2.0)
        assert store.pending_evidence() == [(7, 70)]

    def test_pending_in_detection_order(self, store):
        store.put_evidence(9, 90, 2, "t", 5.0)
        store.put_evidence(3, 30, 2, "t", 1.0)
        assert store.pending_evidence() == [(3, 30), (9, 90)]

    def test_submit_then_resolve(self, store):
        store.put_evidence(7, 70, 2, "t", 1.0)
        store.mark_submitted(7, tx_hash=123)
        assert store.evidence_status(7) == "submitted"
        assert store.evidence_tx(7) == 123
        assert store.pending_evidence() == []
        assert store.unresolved_evidence() == [7]
        store.resolve_evidence(7, "confirmed", 9.0)
        assert store.evidence_status(7) == "confirmed"
        assert store.unresolved_evidence() == []

    @pytest.mark.parametrize("status", TERMINAL_STATUSES)
    def test_terminal_statuses_accepted(self, store, status):
        store.put_evidence(1, 10, 0, "t", 0.0)
        store.resolve_evidence(1, status, 1.0)
        assert store.evidence_status(1) == status

    def test_non_terminal_resolution_rejected(self, store):
        store.put_evidence(1, 10, 0, "t", 0.0)
        with pytest.raises(SimulationError):
            store.resolve_evidence(1, "pending", 1.0)

    def test_counts_and_pks(self, store):
        store.put_evidence(1, 10, 0, "t", 0.0)
        store.put_evidence(2, 20, 0, "t", 0.5)
        store.mark_submitted(2, 5)
        store.resolve_evidence(2, "lost", 1.0)
        assert store.evidence_counts() == {"pending": 1, "lost": 1}
        assert store.evidence_pks() == [1, 2]

    def test_lifecycle_survives_reopen(self, store):
        store.put_evidence(7, 70, 2, "t", 1.0)
        store.mark_submitted(7, 321)
        store = reopened(store)
        assert store.evidence_status(7) == "submitted"
        assert store.evidence_tx(7) == 321

    def test_field_sized_values_roundtrip(self, store):
        """254-bit field elements exceed SQLite's int64 — they must
        come back exact (stored as text)."""
        pk = (1 << 253) + 12345
        secret = (1 << 252) + 67
        store.put_evidence(pk, secret, 1, "t", 0.0)
        assert store.pending_evidence() == [(pk, secret)]


class TestDelegationsAndLedger:
    def test_delegations_in_node_order(self, store):
        store.add_delegation("peer-9", "eoa:peer-9", 100, 0.0)
        store.add_delegation("peer-1", "eoa:peer-1", 100, 1.0)
        assert store.delegations() == [
            ("peer-1", "eoa:peer-1"),
            ("peer-9", "eoa:peer-9"),
        ]
        assert store.delegation_count() == 2

    def test_ledger_totals_by_kind(self, store):
        store.add_ledger("fee", "peer-1", 100, 0.0)
        store.add_ledger("fee", "peer-2", 150, 0.0)
        store.add_ledger("reward", "contract", 10**18, 1.0)
        assert store.ledger_total("fee") == 250
        assert store.ledger_total("reward") == 10**18
        assert store.ledger_total("payout") == 0

    def test_ledger_survives_reopen(self, store):
        store.add_ledger("reward", "contract", 5 * 10**17, 1.0)
        assert reopened(store).ledger_total("reward") == 5 * 10**17
