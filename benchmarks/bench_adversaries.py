"""Adversary engine at scale: spam throughput and slash latency.

Two measurements at 1000 peers:

* attack pressure — how much spam each strategy pushes into the
  network, how much of it honest peers actually see, and what the
  attacker pays per delivered message (the cost-of-attack headline);
* enforcement latency — simulated seconds from a strategy's first rate
  violation to its on-chain removal, across every identity it burns.

Run with ``pytest benchmarks/bench_adversaries.py -s`` (each strategy
simulates a 1000-peer network; expect a few minutes total).
"""

from __future__ import annotations

import time

from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import (
    AdversaryGroup,
    AdversaryMix,
    ScenarioSpec,
    TrafficModel,
)

PEERS = 1000
DURATION = 60.0

STRATEGIES = (
    ("burst-flood", {"epochs": 6}, 4),
    ("rotating-sybil", {}, 6),
    ("low-and-slow", {"probe_every": 2}, 4),
    ("adaptive-backoff", {}, 6),
)


def _spec(
    strategy: str, params: dict, budget_stakes: int, peers: int,
    duration: float,
) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"bench-{strategy}",
        description=f"attack benchmark for {strategy} at {peers} peers",
        peers=peers,
        duration=duration,
        block_interval=5.0,
        traffic=TrafficModel(messages_per_epoch=0.25, active_fraction=0.05),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy=strategy,
                    count=2,
                    budget_stakes=budget_stakes,
                    burst=6,
                    params=params,
                ),
            ),
        ),
    )


def test_adversary_strategies_at_1k_peers(record_table, bench_scale):
    peers = bench_scale.n(PEERS, 25)
    duration = bench_scale.n(DURATION, 40.0)
    rows = []
    for strategy, params, budget_stakes in STRATEGIES:
        started = time.perf_counter()
        spec = _spec(strategy, params, budget_stakes, peers, duration)
        result = ScenarioRunner(spec).run()
        wall = time.perf_counter() - started
        latency = result.extras.get("mean_slash_latency")
        stake = spec.build_config().stake_wei
        rows.append(
            (
                strategy,
                result.spam_published,
                result.spam_delivered,
                result.members_slashed,
                result.identity_rotations,
                f"{result.attacker_spend / stake:.0f}",
                f"{result.stake_burnt / stake:.1f}",
                f"{latency:.1f}" if latency is not None else "n/a",
                f"{result.spam_published / result.sim_time:.2f}",
                f"{wall:.1f}",
            )
        )
        # Enforcement must have engaged for every violating strategy.
        assert result.members_slashed > 0
        assert result.stake_burnt > 0
    record_table(
        "bench_adversaries_1k_peers",
        f"Adversary engine at {peers} peers, {duration:.0f}s simulated "
        "(2 agents per strategy)",
        (
            "strategy",
            "spam sent",
            "delivered",
            "slashes",
            "rotations",
            "spend (stakes)",
            "burnt (stakes)",
            "slash latency s",
            "spam msg/s",
            "wall s",
        ),
        rows,
        note=(
            "slash latency = mean simulated seconds from a rate "
            "violation to on-chain removal; spend counts every stake "
            "the attacker registered (locked or lost)."
        ),
    )
