"""Named scenario registry.

Built-in scenarios cover the paper's claims from different angles:
steady honest traffic, single and coordinated rate-limit violators,
heavy peer churn, group-synchronization staleness, and a side-by-side
with the unprotected baseline. Applications (and tests) register their
own with :func:`register_scenario`; everything registered is runnable
via ``python -m repro.analysis run-scenario <name>``.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..errors import ScenarioError
from .spec import (
    AdversaryGroup,
    AdversaryMix,
    ChurnModel,
    FaultPlan,
    ScenarioSpec,
    TopicSpec,
    TrafficModel,
    WatchtowerSpec,
)

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` under its name; refuses silent redefinition."""
    if spec.name in _REGISTRY and not replace:
        raise ScenarioError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        ) from None


def scenario_names() -> list:
    return sorted(_REGISTRY)


def all_scenarios() -> Iterable[ScenarioSpec]:
    return [_REGISTRY[name] for name in scenario_names()]


register_scenario(
    ScenarioSpec(
        name="honest-steady",
        description=(
            "Every peer honest; half publish one message per epoch. "
            "Measures baseline delivery rate and verification load."
        ),
        peers=200,
        duration=120.0,
        traffic=TrafficModel(messages_per_epoch=1.0, active_fraction=0.5),
    )
)

register_scenario(
    ScenarioSpec(
        name="burst-spammer",
        description=(
            "One registered member bursts 5 messages/epoch for 3 epochs. "
            "The network must contain the spam to the first honest hop "
            "and slash the member."
        ),
        peers=200,
        duration=90.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.3),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    "burst-flood", count=1, burst=5, params={"epochs": 3}
                ),
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="coordinated-multi-spammer",
        description=(
            "Five colluding members burst simultaneously — the paper's "
            "worst case for nullifier-map growth and slashing races "
            "(every router may claim the same reward)."
        ),
        peers=200,
        duration=90.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.3),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    "burst-flood", count=5, burst=4, params={"epochs": 3}
                ),
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="high-churn",
        description=(
            "Peers continuously join (register + sync from the event "
            "log) and leave while honest traffic flows; delivery must "
            "degrade gracefully, never collapse."
        ),
        peers=150,
        duration=150.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.3),
        churn=ChurnModel(
            join_interval=6.0,
            leave_interval=8.0,
            max_joins=15,
            max_leaves=10,
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="stale-root-sync-lag",
        description=(
            "Rapid membership growth against a tiny root window and "
            "slow event-log polling: publishers prove against roots "
            "that slide out of routers' windows, exercising the "
            "UNKNOWN_ROOT rejection path (paper: group-sync race)."
        ),
        peers=100,
        duration=150.0,
        block_interval=5.0,
        traffic=TrafficModel(messages_per_epoch=1.0, active_fraction=0.5),
        churn=ChurnModel(join_interval=4.0, max_joins=25),
        config_overrides={
            "root_window": 2,
            "sync_interval": 12.0,
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="rotating-sybil-economics",
        description=(
            "Two rotating sybils on a budget of 6 stakes each: spam, "
            "get slashed on-chain mid-run, buy a fresh identity, "
            "repeat until broke. The result's series is the paper's "
            "cost-of-attack curve: attacker cost climbs monotonically "
            "while delivered spam stays bounded per identity."
        ),
        peers=150,
        duration=150.0,
        block_interval=5.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.3),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="rotating-sybil",
                    count=2,
                    budget_stakes=6,
                    burst=4,
                ),
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="adaptive-flood",
        description=(
            "Adaptive attackers tune burst size to the observed slash "
            "latency (fast slashing halves the burst, impunity grows "
            "it) and rotate identities while funds remain — the "
            "strongest rational flooder the economics must beat."
        ),
        peers=150,
        duration=150.0,
        block_interval=5.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.3),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="adaptive-backoff",
                    count=2,
                    budget_stakes=5,
                    burst=8,
                ),
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="low-and-slow-probe",
        description=(
            "An attacker at the legal one-message-per-epoch rate that "
            "only periodically emits a second message, probing "
            "detection while spending minimal stake; the economics "
            "series shows even minimal violations cost whole stakes."
        ),
        peers=150,
        duration=150.0,
        block_interval=5.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.3),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="low-and-slow",
                    count=2,
                    budget_stakes=3,
                    params={"probe_every": 3},
                ),
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="multi-topic-churn",
        description=(
            "A genuinely multiplexed mesh: four content topics with "
            "skewed traffic weights and partial subscriptions over one "
            "gossip overlay, churn underneath, and an attacker bursting "
            "into the busiest secondary topic. Per-topic RLN groups "
            "must rate-limit and slash independently while the batched "
            "heartbeat keeps per-topic bookkeeping cheap."
        ),
        peers=600,
        duration=120.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.4),
        topics=(
            TopicSpec("/waku/2/market/proto", traffic_weight=3.0,
                      subscribe_fraction=0.7),
            TopicSpec("/waku/2/chat/proto", traffic_weight=1.5,
                      subscribe_fraction=0.5),
            TopicSpec("/waku/2/firehose/proto", traffic_weight=0.5,
                      subscribe_fraction=0.25, rln_protected=False),
        ),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="rotating-sybil",
                    count=2,
                    budget_stakes=5,
                    burst=4,
                    target_topics=("/waku/2/market/proto",),
                ),
            ),
        ),
        churn=ChurnModel(
            join_interval=8.0,
            leave_interval=10.0,
            max_joins=12,
            max_leaves=8,
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="multi-topic-5k",
        description=(
            "The 5k-peer profile the batched gossip bookkeeping "
            "unlocks: 5000 peers, six topics, light per-peer traffic "
            "and one adaptive attacker per busy topic. Tier-1 smokes "
            "it tiny; the full scale runs behind -m slow."
        ),
        peers=5000,
        duration=60.0,
        traffic=TrafficModel(messages_per_epoch=0.25, active_fraction=0.1),
        topics=(
            TopicSpec("/waku/2/market/proto", traffic_weight=2.0,
                      subscribe_fraction=0.5),
            TopicSpec("/waku/2/chat/proto", traffic_weight=2.0,
                      subscribe_fraction=0.4),
            TopicSpec("/waku/2/news/proto", traffic_weight=1.0,
                      subscribe_fraction=0.3),
            TopicSpec("/waku/2/status/proto", traffic_weight=1.0,
                      subscribe_fraction=0.2),
            TopicSpec("/waku/2/firehose/proto", traffic_weight=0.5,
                      subscribe_fraction=0.1, rln_protected=False),
        ),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="adaptive-backoff",
                    count=2,
                    budget_stakes=4,
                    burst=6,
                    target_topics=("/waku/2/market/proto",),
                ),
                AdversaryGroup(
                    strategy="burst-flood",
                    count=2,
                    budget_stakes=4,
                    burst=5,
                    params={"epochs": 3},
                    target_topics=("/waku/2/chat/proto",),
                ),
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="city-scale-50k",
        description=(
            "City-scale deployment: 50000 peers, 8 shards for the "
            "windowed kernel (--workers), three busy topics, very "
            "light per-peer traffic and a pair of adaptive attackers. "
            "Serial runs use one heap. Tier-1 smokes it tiny; the full "
            "scale runs behind -m slow."
        ),
        peers=50000,
        duration=30.0,
        shards=8,
        traffic=TrafficModel(messages_per_epoch=0.1, active_fraction=0.04),
        topics=(
            TopicSpec("/waku/2/market/proto", traffic_weight=2.0,
                      subscribe_fraction=0.3),
            TopicSpec("/waku/2/chat/proto", traffic_weight=1.0,
                      subscribe_fraction=0.2),
            TopicSpec("/waku/2/firehose/proto", traffic_weight=0.5,
                      subscribe_fraction=0.05, rln_protected=False),
        ),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="adaptive-backoff",
                    count=2,
                    budget_stakes=4,
                    burst=6,
                    target_topics=("/waku/2/market/proto",),
                ),
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="million-id-city",
        description=(
            "Million-identity membership on the sharded registry: "
            "950k pre-registered (dormant) identities seeded at "
            "genesis plus 50000 live peers, depth-20 tree split into "
            "1024 sub-trees of 1024 leaves under a root-of-roots. "
            "Epoch-grid nullifier GC and streaming metrics keep peer "
            "and measurement state bounded over the run. Traffic and "
            "adversaries mirror city-scale-50k so the two are "
            "comparable; extras report sub-trees materialized and "
            "nullifier entries pruned/live. Tier-1 smokes it tiny; "
            "the full scale runs behind -m slow."
        ),
        peers=50000,
        duration=30.0,
        shards=8,
        pre_registered=950_000,
        streaming_metrics=True,
        traffic=TrafficModel(messages_per_epoch=0.1, active_fraction=0.04),
        topics=(
            TopicSpec("/waku/2/market/proto", traffic_weight=2.0,
                      subscribe_fraction=0.3),
            TopicSpec("/waku/2/chat/proto", traffic_weight=1.0,
                      subscribe_fraction=0.2),
            TopicSpec("/waku/2/firehose/proto", traffic_weight=0.5,
                      subscribe_fraction=0.05, rln_protected=False),
        ),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="adaptive-backoff",
                    count=2,
                    budget_stakes=4,
                    burst=6,
                    target_topics=("/waku/2/market/proto",),
                ),
            ),
        ),
        config_overrides={
            # 2^20 = 1,048,576 slots: fits 950k dormant + 50k live +
            # adversary rotations. sub_depth 10 -> 1024-leaf sub-trees.
            "merkle_depth": 20,
            "membership_sub_depth": 10,
            "eager_nullifier_gc": True,
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="delegated-enforcement",
        description=(
            "Every honest peer delegates slash enforcement to one "
            "watchtower service for a flat fee and turns its own "
            "reporting off. Rotating sybils spam and rotate; the "
            "watchtower alone detects the double-signals from its "
            "event-sourced store, submits the slashes and splits each "
            "reporter reward with its delegators."
        ),
        peers=150,
        duration=150.0,
        block_interval=5.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.3),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="rotating-sybil",
                    count=2,
                    budget_stakes=4,
                    burst=4,
                ),
            ),
        ),
        watchtowers=WatchtowerSpec(count=1),
    )
)

register_scenario(
    ScenarioSpec(
        name="delegated-enforcement-crash",
        description=(
            "Crash-fault recovery: the only watchtower dies early in "
            "the attack and restarts later from its persisted SQLite "
            "store — replaying the chain from the committed cursor, "
            "catching up on membership events that fired while it was "
            "down and resubmitting whatever evidence never settled. "
            "Offenders must still end up slashed exactly once."
        ),
        peers=150,
        duration=100.0,
        block_interval=5.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.3),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="burst-flood",
                    count=2,
                    budget_stakes=1,
                    burst=4,
                    params={"epochs": 2},
                ),
            ),
        ),
        watchtowers=WatchtowerSpec(count=1),
        faults=(
            FaultPlan("watchtower-0", crash_at=10.0, restart_at=25.0),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="delegated-enforcement-races",
        description=(
            "Two watchtowers compete for the same slash rewards: both "
            "detect every double-signal and both submit, but the "
            "contract accepts only the first transaction per offender "
            "— the loser's reverts ('unknown member') and its evidence "
            "resolves to a lost race. Exactly one successful slash per "
            "offender, deterministically."
        ),
        peers=150,
        duration=120.0,
        block_interval=5.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.3),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="rotating-sybil",
                    count=2,
                    budget_stakes=3,
                    burst=4,
                ),
            ),
        ),
        watchtowers=WatchtowerSpec(count=2),
    )
)

register_scenario(
    ScenarioSpec(
        name="mixed-baseline-comparison",
        description=(
            "The burst-spammer attack run against Waku-RLN-Relay and, "
            "with identical parameters, against an unprotected relay; "
            "the result's extras record the baseline's spam reach."
        ),
        peers=100,
        duration=90.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.3),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    "burst-flood", count=2, burst=5, params={"epochs": 3}
                ),
            ),
        ),
        compare_baseline=True,
    )
)
