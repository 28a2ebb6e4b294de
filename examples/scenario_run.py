"""Run built-in scenarios and a custom multi-topic one.

Usage::

    PYTHONPATH=src python examples/scenario_run.py

Demonstrates (1) running a registered scenario at reduced scale,
(2) declaring and registering a custom multi-topic scenario with a
topic-targeted adversary, (3) comparing runs with and without the
shared verification cache on identical workloads, and (4) a tiny cut
of ``million-id-city``: a dormant genesis population on a sharded
registry with epoch-grid nullifier GC and streaming metrics.

Equivalent CLI commands (same engine, same deterministic results)::

    PYTHONPATH=src python -m repro.analysis list-scenarios
    PYTHONPATH=src python -m repro.analysis list-strategies
    PYTHONPATH=src python -m repro.analysis run-scenario burst-spammer --peers 60
    PYTHONPATH=src python -m repro.analysis run-scenario multi-topic-churn --json

``result.format()`` prints the full report: delivery/spam counters,
the slashing economics settled on-chain during the run
(``stake_burnt``, ``reporter_rewards``, ``attacker_spend``,
``identity_rotations``), the per-epoch cost-of-attack series, a
per-topic breakdown for multi-topic runs, and the deterministic
``fingerprint``.
"""

from dataclasses import replace

from repro.scenarios.registry import register_scenario, scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    AdversaryGroup,
    AdversaryMix,
    ChurnModel,
    ScenarioSpec,
    TopicSpec,
    TrafficModel,
)


def main() -> None:
    # 1. A built-in scenario, scaled down for a quick local run. The
    # report includes the adversary-engine economics (attacker_spend,
    # identity_rotations, the cost-of-attack series).
    result = run_scenario(scenario("burst-spammer"), peers=60, duration=60)
    print(result.format())
    print()

    # 2. A custom multi-topic scenario: two topics over one mesh, a
    # rotating sybil aimed at the busy one, churn underneath. The
    # result's per-topic breakdown shows where traffic and spam landed.
    custom = register_scenario(
        ScenarioSpec(
            name="example-market-attack",
            description="topic-targeted sybil + churn on a 2-topic mesh",
            peers=50,
            duration=80.0,
            traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.4),
            topics=(
                TopicSpec("/waku/2/market/proto", traffic_weight=3.0,
                          subscribe_fraction=0.7),
                TopicSpec("/waku/2/telemetry/proto", traffic_weight=0.5,
                          subscribe_fraction=0.3, rln_protected=False),
            ),
            adversaries=AdversaryMix(
                groups=(
                    AdversaryGroup(
                        "rotating-sybil",
                        count=1,
                        budget_stakes=4,
                        burst=4,
                        target_topics=("/waku/2/market/proto",),
                    ),
                ),
            ),
            churn=ChurnModel(join_interval=9.0, max_joins=5),
            config_overrides={"verification_cache_size": 16384},
        ),
        replace=True,
    )
    result = run_scenario(custom)
    print(result.format())
    market = result.topics["/waku/2/market/proto"]
    print(
        f"\n  market topic: {market['spam_delivered']:.0f} spam delivered "
        f"to {market['subscribers']:.0f} subscribers; "
        f"delivery rate {market['delivery_rate']:.3f}"
    )
    print()

    # 3. The verification-cache switch on the same workload: outcomes
    # are bit-identical, only the work (and wall clock) changes.
    base = scenario("burst-spammer").scaled(peers=60, duration=60)
    for label, cache in (
        ("no verification cache", 0),
        ("shared verification cache", 65536),
    ):
        spec = replace(
            base, config_overrides={"verification_cache_size": cache}
        )
        r = run_scenario(spec)
        print(
            f"{label:>28}: {r.proof_verifications} proof verifications, "
            f"{r.verification_cache_hits} cache hits, "
            f"{r.wall_clock_seconds:.2f}s wall clock, "
            f"slashed={r.members_slashed}"
        )
    print()

    # 4. million-id-city, scaled way down: the dormant population
    # shrinks with the peer count (here ~19 genesis identities per
    # live peer), the depth-20 registry only materialises the
    # sub-trees traffic actually touches, and the nullifier GC /
    # streaming-metrics bounds keep state flat in run length.
    r = run_scenario(scenario("million-id-city"), peers=25, duration=60)
    print(
        f"{'million-id-city (tiny)':>28}: "
        f"{r.extras['membership_subtrees_materialized']:.0f} of 1024 "
        f"sub-trees materialised, "
        f"{r.extras['nullifier_entries_pruned']:.0f} nullifier entries "
        f"GC'd ({r.extras['nullifier_entries_live']:.0f} live), "
        f"delivery rate {r.delivery_rate:.3f}"
    )


if __name__ == "__main__":
    main()
