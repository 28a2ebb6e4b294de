"""Delegated enforcement: watchtower economics and crash recovery.

Two measurements around the event-sourced watchtower service:

* an end-to-end comparison of the ``delegated-enforcement`` scenario
  against the identical attack with self-enforcing peers — the paper's
  slashing race means *every* honest router submits a claim for the
  same offender (all but one revert on-chain as "unknown member"),
  while a delegated network concentrates enforcement into exactly one
  transaction per offender;
* a recovery-kernel microbenchmark — the exact work a crashed
  watchtower performs on restart (replay the membership event log into
  a fresh replica, advance and commit the persisted cursor) measured
  over growing backlogs, bounding how long a tower stays blind after a
  fault.

Run with ``pytest benchmarks/bench_watchtower.py -s``.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.crypto.field import Fr
from repro.crypto.keys import IdentityCommitment
from repro.eth.chain import Blockchain, Contract, Event
from repro.eth.cursor import EventCursor
from repro.rln.membership import LocalGroup
from repro.scenarios.registry import scenario
from repro.scenarios.runner import run_scenario
from repro.watchtower.store import WatchtowerStore

DEPTH = 20


def test_delegated_vs_self_enforcement(record_table, bench_scale):
    """Same attack, two enforcement regimes: every peer for itself
    (the slashing race) vs one watchtower acting for all delegators."""
    peers = bench_scale.n(150, 20)
    duration = bench_scale.n(150.0, 40.0)
    base = scenario("delegated-enforcement").scaled(
        peers=peers, duration=duration
    )

    rows = []
    results = {}
    for label, spec in (
        ("delegated", base),
        ("self-enforcing", replace(base, watchtowers=None, faults=())),
    ):
        result = run_scenario(spec)
        results[label] = result
        wasted = result.slashes_submitted - result.members_slashed
        rows.append(
            (
                label,
                result.members_slashed,
                result.slashes_submitted,
                wasted,
                result.watchtower_rewards,
                result.delegation_fees,
                round(result.wall_clock_seconds, 2),
            )
        )

    delegated = results["delegated"]
    selfish = results["self-enforcing"]
    record_table(
        "bench_watchtower",
        f"Enforcement regimes under rotating sybils, {peers} peers",
        (
            "mode",
            "slashed",
            "slash txs",
            "wasted txs",
            "watchtower rewards (wei)",
            "delegation fees (wei)",
            "wall clock (s)",
        ),
        rows,
        note=(
            "Self-enforcement races every honest router for the same "
            "reward (losing claims revert on-chain); delegation "
            "concentrates each offender into one transaction."
        ),
        meta={
            "scale_peers": peers,
            "delegated_slash_txs": delegated.slashes_submitted,
            "self_enforcing_slash_txs": selfish.slashes_submitted,
            "delegated_missed_slashes": delegated.missed_slashes,
            "watchtower_rewards_wei": delegated.watchtower_rewards,
        },
    )
    assert delegated.members_slashed > 0
    assert selfish.members_slashed > 0
    # Delegation: exactly one slash transaction per settled offender,
    # and nothing the network detected went unslashed.
    assert delegated.slashes_submitted == delegated.members_slashed
    assert delegated.missed_slashes == 0
    assert delegated.watchtower_rewards > 0
    if not bench_scale.quick:
        # The race is real: self-enforcement burns extra transactions.
        assert selfish.slashes_submitted > selfish.members_slashed


def _membership_log(events: int) -> list:
    """A synthetic contract event log: registrations with a slash
    every 16th event — the stream a recovering watchtower replays."""
    log = []
    registered = 0
    for index in range(events):
        if index % 16 == 15:
            log.append(
                Event(
                    name="MemberRemoved",
                    args={"pk": registered - 1, "index": registered - 1},
                    contract="rln",
                    block_number=index // 50,
                    log_index=index,
                )
            )
        else:
            log.append(
                Event(
                    name="MemberRegistered",
                    args={"pk": 1 + index, "index": registered},
                    contract="rln",
                    block_number=index // 50,
                    log_index=index,
                )
            )
            registered += 1
    return log


def _replay(log, store) -> LocalGroup:
    """The restart path: rebuild the replica from genesis, advance the
    cursor past the backlog, commit both atomically."""
    chain = Blockchain()
    chain.deploy(Contract("rln"))
    chain.event_log.extend(log)
    group = LocalGroup(DEPTH)
    cursor = EventCursor(chain, "rln")
    applied = 0
    store.begin()
    for event in cursor.poll():
        if event.name == "MemberRegistered":
            group.apply_registration(
                IdentityCommitment(Fr(event.args["pk"])), applied
            )
        else:
            group.apply_removal(event.args["index"], applied)
        applied += 1
    store.commit_cursor(cursor.log_index)
    store.commit()
    assert cursor.caught_up
    return group


def test_recovery_replay_kernel(record_table, bench_scale, tmp_path):
    """Restart cost as a function of missed-event backlog."""
    backlogs = bench_scale.n((100, 1000, 5000), (20, 60))

    rows = []
    throughputs = {}
    for backlog in backlogs:
        log = _membership_log(backlog)
        store = WatchtowerStore(str(tmp_path / f"replay-{backlog}.sqlite"))
        start = time.perf_counter()
        group = _replay(log, store)
        elapsed = time.perf_counter() - start
        committed = store.cursor()
        store.close()
        assert committed == backlog
        # Correctness: the replayed replica matches a directly built one.
        reference = LocalGroup(DEPTH)
        for index, event in enumerate(log):
            if event.name == "MemberRegistered":
                reference.apply_registration(
                    IdentityCommitment(Fr(event.args["pk"])), index
                )
            else:
                reference.apply_removal(event.args["index"], index)
        assert int(group.root) == int(reference.root)
        throughputs[backlog] = backlog / elapsed if elapsed else 0.0
        rows.append(
            (
                backlog,
                round(elapsed * 1000, 2),
                round(throughputs[backlog], 0),
            )
        )

    largest = backlogs[-1]
    record_table(
        "bench_watchtower_recovery",
        f"Watchtower restart: membership replay over a missed-event "
        f"backlog (depth {DEPTH})",
        ("backlog (events)", "replay (ms)", "events / s"),
        rows,
        note=(
            "Replay rebuilds the replica from genesis and commits the "
            "advanced cursor in one SQLite transaction — the window a "
            "restarted tower stays blind scales linearly with the "
            "backlog."
        ),
        meta={
            "largest_backlog": largest,
            "events_per_second": round(throughputs[largest], 0),
        },
    )
    if not bench_scale.quick:
        assert throughputs[largest] > 500.0, (
            f"recovery replay too slow: "
            f"{throughputs[largest]:.0f} events/s"
        )
