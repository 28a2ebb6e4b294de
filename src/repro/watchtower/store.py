"""Write-ahead SQLite state store backing a watchtower service.

Event-sourcing discipline: the service derives *all* of its state from
the chain event log plus the signals it relayed, and everything it
derives is persisted here — the committed chain cursor, the first seen
signal per ``(topic, epoch, nullifier)``, slashing evidence with its
lifecycle status, the delegation ledger and the money flows. A restart
therefore needs nothing but this file: it reopens the store, replays
the chain from the committed cursor, reseeds its in-memory nullifier
maps from the persisted signals and resubmits whatever evidence is
still pending — never re-acting on anything already marked done.

Durability boundaries match the simulator's: detection-time writes
(signals, fresh evidence) autocommit as they happen, while one
enforcement tick's effects — events consumed, evidence resolved,
payouts ledgered, cursor advanced — commit atomically via
``begin()``/``commit()``, so a crash between ticks can never observe a
cursor ahead of the state it implies.

Evidence lifecycle::

    pending ──submit──▶ submitted ──receipt ok──▶ confirmed
       │                    └──────receipt revert─▶ lost
       └──member gone before we submitted────────▶ preempted
"""

from __future__ import annotations

import sqlite3
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS signals (
    topic     TEXT    NOT NULL,
    epoch     INTEGER NOT NULL,
    nullifier TEXT    NOT NULL,
    blob      BLOB    NOT NULL,
    PRIMARY KEY (topic, epoch, nullifier)
);
CREATE TABLE IF NOT EXISTS evidence (
    pk          TEXT PRIMARY KEY,
    secret      TEXT NOT NULL,
    epoch       INTEGER NOT NULL,
    topic       TEXT NOT NULL,
    detected_at REAL NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending',
    tx_hash     INTEGER,
    resolved_at REAL
);
CREATE TABLE IF NOT EXISTS delegations (
    node_id      TEXT PRIMARY KEY,
    account      TEXT NOT NULL,
    fee_wei      INTEGER NOT NULL,
    delegated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS ledger (
    seq          INTEGER PRIMARY KEY AUTOINCREMENT,
    kind         TEXT NOT NULL,
    counterparty TEXT NOT NULL,
    amount_wei   INTEGER NOT NULL,
    at           REAL NOT NULL
);
"""

#: Evidence rows in these states are done; replaying their chain
#: events again must not (and does not) change anything.
TERMINAL_STATUSES = ("confirmed", "lost", "preempted")


class WatchtowerStore:
    """The persistent half of one watchtower service."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._conn: Optional[sqlite3.Connection] = None
        self.open()

    # -- connection lifecycle ----------------------------------------------------

    def open(self) -> None:
        """(Re)connect; idempotent on an already-open store."""
        if self._conn is not None:
            return
        # Autocommit mode: single writes land immediately; the explicit
        # BEGIN in :meth:`begin` groups one tick into a transaction.
        conn = sqlite3.connect(self.path, isolation_level=None)
        try:
            if self.path != ":memory:":
                conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError as exc:
            # A torn or foreign file: fail typed, leaking no connection.
            conn.close()
            raise SimulationError(
                f"watchtower store {self.path!r} is unreadable: {exc}"
            ) from exc
        self._conn = conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    @property
    def conn(self) -> sqlite3.Connection:
        if self._conn is None:
            raise SimulationError(
                f"watchtower store {self.path!r} is closed"
            )
        return self._conn

    # -- tick transactions ---------------------------------------------------------

    def begin(self) -> None:
        self.conn.execute("BEGIN")

    def commit(self) -> None:
        self.conn.execute("COMMIT")

    # -- chain cursor ----------------------------------------------------------------

    def cursor(self) -> int:
        """The committed event-log position (next log index to read)."""
        row = self.conn.execute(
            "SELECT value FROM meta WHERE key = 'cursor'"
        ).fetchone()
        return int(row[0]) if row else 0

    def commit_cursor(self, log_index: int) -> None:
        self.conn.execute(
            "INSERT INTO meta (key, value) VALUES ('cursor', ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (str(log_index),),
        )

    # -- seen signals -----------------------------------------------------------------

    def record_signal(
        self, topic: str, epoch: int, nullifier: str, blob: bytes
    ) -> None:
        """Persist the first relayed signal per (topic, epoch, phi) —
        exactly the record the in-memory nullifier map keeps, so a
        restart can detect double-signals against pre-crash traffic."""
        self.conn.execute(
            "INSERT OR IGNORE INTO signals (topic, epoch, nullifier, blob)"
            " VALUES (?, ?, ?, ?)",
            (topic, epoch, nullifier, blob),
        )

    def signals(self) -> List[Tuple[str, bytes]]:
        """All persisted (topic, signal bytes), deterministic order."""
        return self.conn.execute(
            "SELECT topic, blob FROM signals "
            "ORDER BY topic, epoch, nullifier"
        ).fetchall()

    def prune_signals(self, current_epoch: int, thr: int) -> int:
        """Drop signals outside the epoch acceptance window (mirrors
        :meth:`NullifierMap.prune`); returns #rows freed."""
        cur = self.conn.execute(
            "DELETE FROM signals WHERE epoch < ? OR epoch > ?",
            (current_epoch - thr, current_epoch + thr),
        )
        return cur.rowcount

    # -- slashing evidence --------------------------------------------------------------

    def put_evidence(
        self,
        pk: int,
        secret: int,
        epoch: int,
        topic: str,
        detected_at: float,
    ) -> bool:
        """Record newly detected evidence; False if ``pk`` is known."""
        cur = self.conn.execute(
            "INSERT OR IGNORE INTO evidence "
            "(pk, secret, epoch, topic, detected_at) "
            "VALUES (?, ?, ?, ?, ?)",
            (str(pk), str(secret), epoch, topic, detected_at),
        )
        return cur.rowcount > 0

    def evidence_status(self, pk: int) -> Optional[str]:
        row = self.conn.execute(
            "SELECT status FROM evidence WHERE pk = ?", (str(pk),)
        ).fetchone()
        return row[0] if row else None

    def evidence_tx(self, pk: int) -> Optional[int]:
        row = self.conn.execute(
            "SELECT tx_hash FROM evidence WHERE pk = ?", (str(pk),)
        ).fetchone()
        return row[0] if row else None

    def pending_evidence(self) -> List[Tuple[int, int]]:
        """(pk, secret) rows not yet submitted, in detection order
        (pk as the deterministic tie-break)."""
        rows = self.conn.execute(
            "SELECT pk, secret FROM evidence WHERE status = 'pending' "
            "ORDER BY detected_at, pk"
        ).fetchall()
        return [(int(pk), int(secret)) for pk, secret in rows]

    def evidence_pks(self) -> List[int]:
        """Every offender pk this service ever detected."""
        rows = self.conn.execute(
            "SELECT pk FROM evidence ORDER BY pk"
        ).fetchall()
        return [int(pk) for (pk,) in rows]

    def unresolved_evidence(self) -> List[int]:
        """pks with evidence still in flight (pending or submitted)."""
        rows = self.conn.execute(
            "SELECT pk FROM evidence "
            "WHERE status IN ('pending', 'submitted') ORDER BY pk"
        ).fetchall()
        return [int(pk) for (pk,) in rows]

    def mark_submitted(self, pk: int, tx_hash: int) -> None:
        self.conn.execute(
            "UPDATE evidence SET status = 'submitted', tx_hash = ? "
            "WHERE pk = ?",
            (tx_hash, str(pk)),
        )

    def resolve_evidence(
        self, pk: int, status: str, resolved_at: float
    ) -> None:
        if status not in TERMINAL_STATUSES:
            raise SimulationError(
                f"{status!r} is not a terminal evidence status"
            )
        self.conn.execute(
            "UPDATE evidence SET status = ?, resolved_at = ? WHERE pk = ?",
            (status, resolved_at, str(pk)),
        )

    def evidence_counts(self) -> Dict[str, int]:
        """status -> row count (absent statuses omitted)."""
        rows = self.conn.execute(
            "SELECT status, COUNT(*) FROM evidence GROUP BY status"
        ).fetchall()
        return dict(rows)

    # -- delegations ----------------------------------------------------------------------

    def add_delegation(
        self, node_id: str, account: str, fee_wei: int, at: float
    ) -> None:
        self.conn.execute(
            "INSERT INTO delegations (node_id, account, fee_wei, "
            "delegated_at) VALUES (?, ?, ?, ?)",
            (node_id, account, fee_wei, at),
        )

    def delegations(self) -> List[Tuple[str, str]]:
        """(node_id, account) pairs in node-id order — the payout
        distribution order, deterministic across restarts."""
        return self.conn.execute(
            "SELECT node_id, account FROM delegations ORDER BY node_id"
        ).fetchall()

    def delegation_count(self) -> int:
        return self.conn.execute(
            "SELECT COUNT(*) FROM delegations"
        ).fetchone()[0]

    # -- money ledger ------------------------------------------------------------------------

    def add_ledger(
        self, kind: str, counterparty: str, amount_wei: int, at: float
    ) -> None:
        self.conn.execute(
            "INSERT INTO ledger (kind, counterparty, amount_wei, at) "
            "VALUES (?, ?, ?, ?)",
            (kind, counterparty, amount_wei, at),
        )

    def ledger_total(self, kind: str) -> int:
        row = self.conn.execute(
            "SELECT COALESCE(SUM(amount_wei), 0) FROM ledger "
            "WHERE kind = ?",
            (kind,),
        ).fetchone()
        return int(row[0])
