"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one reproducible workload: a topology, a
per-peer traffic model, an adversary mix, a churn process and protocol
configuration overrides. Specs are immutable values — the same spec and
seed always produce the same :class:`~repro.scenarios.result.ScenarioResult`
— and compose via :meth:`ScenarioSpec.scaled`, which is how the smoke
tests shrink full-scale scenarios to CI size without forking them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Tuple

from ..constants import ETH_BLOCK_INTERVAL_SECONDS
from ..core.config import ProtocolConfig
from ..errors import ScenarioError, ScenarioSpecError
from ..waku.message import DEFAULT_PUBSUB_TOPIC


def _check(
    spec, kind, *names: str, least=0, most=math.inf, strict=False
) -> None:
    """Raise :class:`ScenarioSpecError` naming the first of ``names``
    whose value is not an ``int`` (``kind`` int) or a real (``kind``
    float) in ``[least, most]``, or ``(least, most]`` when ``strict``;
    NaN and infinities never are."""
    for name in names:
        value = getattr(spec, name)
        if not (
            isinstance(value, int if kind is int else (int, float))
            and (least < value if strict else least <= value)
            and value <= most
            and value < math.inf
        ):
            what = "an integer" if kind is int else "a number"
            low = "(" if strict else "["
            high = f"{most}]" if most < math.inf else "inf)"
            raise ScenarioSpecError(
                f"{name} must be {what} in {low}{least}, {high}, "
                f"got {value!r}",
                problems=(name,),
            )


@dataclass(frozen=True)
class TopicSpec:
    """One extra pubsub topic of a multiplexed mesh.

    A scenario's mesh always carries the primary topic
    (:data:`~repro.waku.message.DEFAULT_PUBSUB_TOPIC`, implicit traffic
    weight 1.0, every peer subscribed); ``ScenarioSpec.topics`` adds
    named topics next to it. ``traffic_weight`` is this topic's share of
    each publisher's honest traffic relative to the other topics it is
    subscribed to; ``subscribe_fraction`` selects (seed-deterministic)
    which peers join; ``rln_protected`` gives the topic its own RLN
    group — an independent one-message-per-epoch budget and
    double-signal detection with domain-separated nullifiers — while
    ``False`` leaves it an open, unlimited topic.
    """

    name: str
    traffic_weight: float = 1.0
    subscribe_fraction: float = 1.0
    rln_protected: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("a topic needs a name")
        if self.name == DEFAULT_PUBSUB_TOPIC:
            raise ScenarioError(
                "the primary topic is implicit; list only extra topics"
            )
        _check(self, float, "traffic_weight")
        _check(self, float, "subscribe_fraction", most=1)


@dataclass(frozen=True)
class TrafficModel:
    """Honest per-peer publishing behaviour.

    ``messages_per_epoch`` is the target rate of each *active* publisher
    (honest peers never exceed 1/epoch — the protocol's own limit);
    ``active_fraction`` selects how many honest peers publish at all.
    """

    messages_per_epoch: float = 1.0
    active_fraction: float = 0.5
    payload_bytes: int = 64
    start: float = 2.0

    def __post_init__(self) -> None:
        _check(self, float, "messages_per_epoch", "start")
        _check(self, float, "active_fraction", most=1)
        _check(self, int, "payload_bytes")


@dataclass(frozen=True)
class AdversaryGroup:
    """``count`` agents running one named adversary strategy.

    ``strategy`` names an entry in the adversary-strategy registry
    (``repro.adversaries.strategy_names()``). Each agent's wallet is
    funded with ``budget_stakes`` membership stakes — its whole attack
    budget, bootstrap registration included — so identity rotation
    stops when the money does. ``params`` is passed to the strategy
    factory verbatim (e.g. ``{"epochs": 5}`` for ``burst-flood`` or
    ``{"probe_every": 3}`` for ``low-and-slow``).
    """

    strategy: str
    count: int = 1
    budget_stakes: int = 4
    burst: int = 5
    params: Mapping[str, object] = field(default_factory=dict)
    #: Pubsub topics the group's agents spam, round-robin per message.
    #: Empty = the primary topic. Names must be the primary topic or
    #: RLN-protected entries of ``ScenarioSpec.topics`` (spamming an
    #: open topic is the unprotected baseline, not an RLN attack).
    target_topics: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check(self, int, "count", "burst")
        # An adversary needs at least 1 stake of budget to exist.
        _check(self, int, "budget_stakes", least=1)
        if not isinstance(self.target_topics, tuple):
            object.__setattr__(
                self, "target_topics", tuple(self.target_topics)
            )
        # Validate the name early (typos should fail at spec build, not
        # mid-run); imported lazily to keep spec a leaf module.
        from ..adversaries.strategies import strategy_names

        if self.strategy not in strategy_names():
            raise ScenarioError(
                f"unknown adversary strategy {self.strategy!r}; "
                f"choose from {strategy_names()}"
            )


@dataclass(frozen=True)
class AdversaryMix:
    """Registered members that violate their rate limit.

    ``groups`` names strategy-driven, budget-constrained agents from
    the adversary engine (a plain one-shot burst flooder is a
    ``burst-flood`` group). All adversaries are taken from the *tail*
    of the initial peer list and start acting at ``start`` simulated
    seconds.
    """

    start: float = 2.0
    groups: Tuple[AdversaryGroup, ...] = ()

    def __post_init__(self) -> None:
        _check(self, float, "start")
        if not isinstance(self.groups, tuple):
            object.__setattr__(self, "groups", tuple(self.groups))

    @property
    def total_count(self) -> int:
        """All adversaries, summed over the groups."""
        return sum(g.count for g in self.groups)


@dataclass(frozen=True)
class WatchtowerSpec:
    """Delegated enforcement: ``count`` watchtower services.

    Each service attaches its own relay node to the overlay, watches
    the protected topics (``topics`` names a subset; empty = all of
    them) and submits slash transactions on behalf of its delegators.
    ``delegate_fraction`` selects how many honest peers outsource
    enforcement (they pay ``delegation_fee_wei`` once and stop
    claiming slashes themselves); delegators are assigned round-robin
    across the services. The service keeps ``reward_cut`` of every
    won reporter reward and splits the rest evenly among its
    delegators.
    """

    count: int = 1
    reward_cut: float = 0.25
    delegation_fee_wei: int = 10**15
    delegate_fraction: float = 1.0
    sync_interval: Optional[float] = None
    degree: int = 6
    topics: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check(self, int, "count", "degree", least=1)
        _check(self, float, "reward_cut", "delegate_fraction", most=1)
        _check(self, int, "delegation_fee_wei")
        if self.sync_interval is not None:
            _check(self, float, "sync_interval", strict=True)
        if not isinstance(self.topics, tuple):
            object.__setattr__(self, "topics", tuple(self.topics))

    def service_ids(self) -> Tuple[str, ...]:
        return tuple(f"watchtower-{i}" for i in range(self.count))


@dataclass(frozen=True)
class FaultPlan:
    """One crash/restart fault injected into a watchtower service.

    ``target`` names a service (``watchtower-<i>``); at ``crash_at``
    simulated seconds the service loses all in-memory state, its
    timers and its overlay links; at ``restart_at`` (if given) it
    recovers from its persisted SQLite store — replaying the chain
    from the committed cursor and resubmitting pending evidence. No
    restart means the service stays down for the rest of the run.
    """

    target: str
    crash_at: float
    restart_at: Optional[float] = None

    def __post_init__(self) -> None:
        _check(self, float, "crash_at", strict=True)
        if self.restart_at is not None:
            _check(self, float, "restart_at", least=self.crash_at, strict=True)

    def rescaled(self, ratio: float) -> "FaultPlan":
        """Fault times scaled with the scenario duration."""
        return replace(
            self,
            crash_at=self.crash_at * ratio,
            restart_at=(
                self.restart_at * ratio
                if self.restart_at is not None
                else None
            ),
        )


@dataclass(frozen=True)
class ChurnModel:
    """Peers joining and leaving while the network runs.

    Intervals of 0 disable the corresponding process. Leaves pick a
    random live non-publisher honest peer, so the delivery-rate metric
    keeps a stable denominator; joins dial into the live overlay,
    register on-chain and replay the full membership event log.
    """

    join_interval: float = 0.0
    leave_interval: float = 0.0
    max_joins: int = 0
    max_leaves: int = 0
    start: float = 2.0

    def __post_init__(self) -> None:
        _check(self, float, "join_interval", "leave_interval", "start")
        _check(self, int, "max_joins", "max_leaves")

    @property
    def active(self) -> bool:
        return bool(
            (self.join_interval and self.max_joins)
            or (self.leave_interval and self.max_leaves)
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, seed-deterministic workload."""

    name: str
    description: str
    peers: int = 50
    degree: Optional[int] = 6
    duration: float = 60.0
    seed: int = 0
    block_interval: float = ETH_BLOCK_INTERVAL_SECONDS
    traffic: TrafficModel = field(default_factory=TrafficModel)
    adversaries: AdversaryMix = field(default_factory=AdversaryMix)
    churn: ChurnModel = field(default_factory=ChurnModel)
    #: Extra pubsub topics multiplexed over the same mesh (the primary
    #: topic is always present); see :class:`TopicSpec`.
    topics: Tuple[TopicSpec, ...] = ()
    #: Shards the windowed kernel partitions the network into; no
    #: effect without ``parallel_workers`` (the serial kernel runs one
    #: heap). Fingerprints are invariant in this value — it selects
    #: execution machinery, not workload semantics.
    shards: int = 1
    #: Delegated enforcement: watchtower services watching the
    #: protected topics on behalf of delegating peers (None = none).
    watchtowers: Optional[WatchtowerSpec] = None
    #: Crash/restart faults injected into watchtower services.
    faults: Tuple[FaultPlan, ...] = ()
    #: Attribute overrides applied to the default :class:`ProtocolConfig`.
    config_overrides: Mapping[str, object] = field(default_factory=dict)
    #: Also run the same adversary against an unprotected baseline relay
    #: and record the comparison in ``ScenarioResult.extras``.
    compare_baseline: bool = False
    #: Opt-in window-isolated parallel mode: 0 = off (the default
    #: serial kernel), >= 1 = run the full stack on the windowed
    #: kernel with barrier-synced chain replicas. Workers beyond
    #: ``shards`` are clamped; 1 worker drives the same barrier
    #: protocol in-process. Results are invariant in *both* shards
    #: and workers, but the mode draws from per-entity RNG streams,
    #: so they intentionally differ from the serial kernel's.
    parallel_workers: int = 0
    #: Barrier window length in simulated seconds (None = the latency
    #: model's minimum latency, the widest sound window).
    parallel_window: Optional[float] = None
    #: Identities baked into the membership contract at deploy time
    #: (genesis member list) on top of the ``peers`` that register
    #: transactionally — the paper's "huge membership, small active
    #: set" regime. Applied to replicas via one batch event and the
    #: tree's bulk-build path. ``scaled()`` shrinks it with the peer
    #: ratio.
    pre_registered: int = 0
    #: Bounded measurement state: the adversary economics series is
    #: capped at 256 points by uniform decimation. It holds one point
    #: per epoch, so below 256 epochs (2 560 sim-s at the default 10 s
    #: epoch) nothing is dropped and the flag is fingerprint-neutral.
    streaming_metrics: bool = False

    def __post_init__(self) -> None:
        _check(self, int, "peers", least=2)
        _check(self, int, "pre_registered", "parallel_workers")
        _check(self, int, "shards", least=1)
        if self.degree is not None:  # None: a full mesh
            _check(self, int, "degree", least=1)
        # Proving keys derive from 8 bytes of the seed.
        _check(self, int, "seed", most=(1 << 64) - 1)
        if self.adversaries.total_count >= self.peers:
            raise ScenarioError("spammers must leave at least one honest peer")
        _check(self, float, "duration", strict=True)  # NaN never ends
        _check(self, float, "block_interval")
        if not isinstance(self.topics, tuple):
            object.__setattr__(self, "topics", tuple(self.topics))
        names = [t.name for t in self.topics]
        if len(set(names)) != len(names):
            raise ScenarioError(f"duplicate topic names: {sorted(names)}")
        targetable = {DEFAULT_PUBSUB_TOPIC} | {
            t.name for t in self.topics if t.rln_protected
        }
        for group in self.adversaries.groups:
            unknown_topics = set(group.target_topics) - targetable
            if unknown_topics:
                raise ScenarioError(
                    f"adversary group {group.strategy!r} targets topics "
                    f"that are not RLN-protected topics of this scenario: "
                    f"{sorted(unknown_topics)}"
                )
            # Rate limits are per topic: a burst round-robined over N
            # targets must exceed one message per topic per epoch, or
            # the "attack" is legal traffic that never double-signals
            # and the economics silently measure nothing.
            resolved_burst = group.params.get("burst", group.burst)
            if (
                len(group.target_topics) > 1
                and isinstance(resolved_burst, (int, float))
                and resolved_burst <= len(group.target_topics)
            ):
                raise ScenarioError(
                    f"adversary group {group.strategy!r}: burst "
                    f"{resolved_burst} spread over "
                    f"{len(group.target_topics)} target topics never "
                    "exceeds the per-topic rate limit; raise burst "
                    "above the target count or target fewer topics"
                )
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        if self.faults and self.watchtowers is None:
            raise ScenarioError(
                "faults target watchtower services; add a WatchtowerSpec"
            )
        if self.watchtowers is not None:
            service_ids = set(self.watchtowers.service_ids())
            for fault in self.faults:
                if fault.target not in service_ids:
                    raise ScenarioError(
                        f"fault targets unknown service {fault.target!r}; "
                        f"this scenario runs {sorted(service_ids)}"
                    )
            watchable = {DEFAULT_PUBSUB_TOPIC} | {
                t.name for t in self.topics if t.rln_protected
            }
            unknown_watch = set(self.watchtowers.topics) - watchable
            if unknown_watch:
                raise ScenarioError(
                    f"watchtowers watch topics that are not RLN-protected "
                    f"topics of this scenario: {sorted(unknown_watch)}"
                )
        unknown = set(self.config_overrides) - {
            f.name for f in ProtocolConfig.__dataclass_fields__.values()
        }
        if unknown:
            raise ScenarioError(
                f"unknown ProtocolConfig overrides: {sorted(unknown)}"
            )
        if self.parallel_window is not None and not (
            0 < self.parallel_window < math.inf
        ):
            raise ScenarioSpecError(
                f"parallel_window must be positive and finite, got "
                f"{self.parallel_window}; drop the override to use the "
                f"latency model's minimum latency, or pick a value no "
                f"larger than it (the protocol's delivery-delay bound "
                f"is max_network_delay="
                f"{ProtocolConfig().max_network_delay}s)",
                problems=("parallel_window",),
            )

    @property
    def topic_names(self) -> Tuple[str, ...]:
        """All pubsub topics of the run: primary first, extras after."""
        return (DEFAULT_PUBSUB_TOPIC,) + tuple(t.name for t in self.topics)

    def build_config(self) -> ProtocolConfig:
        return replace(ProtocolConfig(), **dict(self.config_overrides))

    def scaled(
        self,
        peers: Optional[int] = None,
        duration: Optional[float] = None,
        seed: Optional[int] = None,
        shards: Optional[int] = None,
        parallel_workers: Optional[int] = None,
    ) -> "ScenarioSpec":
        """A copy resized for quick runs, adversary mix rescaled with it."""
        spec = self
        if peers is not None and peers != spec.peers:
            adversaries = spec.adversaries
            ratio = peers / spec.peers
            adversaries = replace(
                adversaries,
                groups=tuple(
                    replace(g, count=max(1, round(g.count * ratio)))
                    for g in adversaries.groups
                    if g.count
                ),
            )
            # Never scale adversaries up into the whole network: trim
            # groups, first group first, until at least one honest
            # peer remains.
            while adversaries.total_count >= peers:
                groups = list(adversaries.groups)
                for i, g in enumerate(groups):
                    if g.count:
                        groups[i] = replace(g, count=g.count - 1)
                        break
                adversaries = replace(adversaries, groups=tuple(groups))
            pre_registered = spec.pre_registered
            if pre_registered:
                pre_registered = round(pre_registered * ratio)
            spec = replace(
                spec,
                peers=peers,
                adversaries=adversaries,
                pre_registered=pre_registered,
            )
        if duration is not None and duration != spec.duration:
            # Fault times track the run: a crash planned mid-run at
            # full scale stays mid-run in a shrunk smoke run.
            ratio = duration / spec.duration
            spec = replace(
                spec,
                duration=duration,
                faults=tuple(f.rescaled(ratio) for f in spec.faults),
            )
        if seed is not None:
            spec = replace(spec, seed=seed)
        if shards is not None:
            spec = replace(spec, shards=shards)
        if parallel_workers is not None:
            spec = replace(spec, parallel_workers=parallel_workers)
        return spec
