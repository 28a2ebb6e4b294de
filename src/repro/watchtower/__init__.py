"""Watchtower subsystem: outsourced, crash-recoverable enforcement.

The paper's economic loop assumes every routing peer polices the
network itself; light clients cannot afford to. A
:class:`~repro.watchtower.service.WatchtowerService` watches protected
topics on behalf of delegating peers, detects double-signals, and
submits the slash transactions for a configurable cut of the reporter
reward — the market-of-watchers extension of the cost-of-attack
economics, modeled on event-sourced monitoring services (persistent
state DB plus a chain cursor, as in Raiden's monitoring service).

Everything the service knows lives in a SQLite
:class:`~repro.watchtower.store.WatchtowerStore` — seen nullifiers per
epoch, pending slashing evidence, the committed chain-event cursor, the
delegation ledger — so a crashed service restarted mid-run replays the
chain from its committed cursor, catches up missed membership and
slash events, and never double-submits evidence it already acted on.
"""
