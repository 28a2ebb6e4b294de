"""Uniform metrics object every scenario run produces.

All fields except ``wall_clock_seconds`` are deterministic for a given
``(spec, seed)`` — equality and :meth:`ScenarioResult.fingerprint`
exclude wall-clock so two runs of the same scenario compare equal even
though the host machine's speed differs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict

from ..crypto.digests import sha256


@dataclass
class ScenarioResult:
    """What one scenario run measured."""

    scenario: str
    seed: int
    peers_started: int
    peers_final: int
    joined: int
    left: int
    #: Honest traffic.
    honest_published: int
    honest_delivered: int
    delivery_rate: float
    #: Adversarial traffic.
    spam_published: int
    spam_delivered: int
    spam_per_honest_peer: float
    #: Enforcement.
    slashes_submitted: int
    members_slashed: int
    #: Verification work (the hot path the cache batches away).
    proof_verifications: int
    verification_cache_hits: int
    #: Slashing economics, settled on-chain *during* the run.
    stake_burnt: int = 0
    reporter_rewards: int = 0
    #: Adversary-engine economics (0 / empty without engine agents).
    attacker_spend: int = 0
    identity_rotations: int = 0
    #: Delegated enforcement (all zero / empty without watchtowers;
    #: the keys then stay out of to_dict so historical fingerprints
    #: are untouched). Wei amounts are exact integers.
    watchtower_rewards: int = 0
    delegation_fees: int = 0
    #: Offenders the network detected but never slashed on-chain.
    missed_slashes: int = 0
    #: Total simulated seconds watchtowers spent recovering after
    #: restarts (replay + resubmission until evidence settled).
    recovery_time: float = 0.0
    #: Per-service breakdown: service id -> summary figures.
    watchtowers: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Column-oriented per-epoch series from the adversary engine
    #: (keys like ``t``, ``attacker_cost_wei``, ``spam_delivered``).
    series: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-topic breakdown for multi-topic scenarios (empty otherwise):
    #: topic -> {honest_published, honest_delivered, delivery_rate,
    #: spam_delivered, subscribers}.
    topics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Selected validator/router counters (validator.*, gossipsub.*).
    counters: Dict[str, int] = field(default_factory=dict)
    sim_time: float = 0.0
    events_processed: int = 0
    #: Host-dependent; excluded from equality and the fingerprint.
    wall_clock_seconds: float = field(default=0.0, compare=False)
    #: Scenario-specific extra measurements (e.g. baseline comparison).
    extras: Dict[str, float] = field(default_factory=dict)

    def to_dict(self, include_wall_clock: bool = True) -> Dict[str, object]:
        out: Dict[str, object] = {
            "scenario": self.scenario,
            "seed": self.seed,
            "peers_started": self.peers_started,
            "peers_final": self.peers_final,
            "joined": self.joined,
            "left": self.left,
            "honest_published": self.honest_published,
            "honest_delivered": self.honest_delivered,
            "delivery_rate": round(self.delivery_rate, 6),
            "spam_published": self.spam_published,
            "spam_delivered": self.spam_delivered,
            "spam_per_honest_peer": round(self.spam_per_honest_peer, 6),
            "slashes_submitted": self.slashes_submitted,
            "members_slashed": self.members_slashed,
            "stake_burnt": self.stake_burnt,
            "reporter_rewards": self.reporter_rewards,
            "attacker_spend": self.attacker_spend,
            "identity_rotations": self.identity_rotations,
            "proof_verifications": self.proof_verifications,
            "verification_cache_hits": self.verification_cache_hits,
            "series": {
                key: [round(v, 6) for v in values]
                for key, values in sorted(self.series.items())
            },
            "topics": {
                name: {k: round(v, 6) for k, v in sorted(stats.items())}
                for name, stats in sorted(self.topics.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "sim_time": self.sim_time,
        }
        if self.watchtowers:
            out["watchtower_rewards"] = self.watchtower_rewards
            out["delegation_fees"] = self.delegation_fees
            out["missed_slashes"] = self.missed_slashes
            out["recovery_time"] = round(self.recovery_time, 6)
            out["watchtowers"] = {
                name: dict(sorted(stats.items()))
                for name, stats in sorted(self.watchtowers.items())
            }
        out.update({
            "events_processed": self.events_processed,
            "extras": {k: round(v, 6) for k, v in sorted(self.extras.items())},
        })
        if include_wall_clock:
            out["wall_clock_seconds"] = self.wall_clock_seconds
        return out

    def fingerprint(self) -> str:
        """Stable digest of the deterministic fields; two runs of the
        same scenario+seed must produce the same fingerprint."""
        canonical = json.dumps(
            self.to_dict(include_wall_clock=False), sort_keys=True
        )
        return sha256(canonical.encode()).hexdigest()[:16]

    def format(self) -> str:
        """Human-readable report for the CLI."""
        lines = [f"scenario: {self.scenario} (seed {self.seed})"]
        data = self.to_dict()
        data.pop("scenario")
        data.pop("seed")
        counters = data.pop("counters")
        extras = data.pop("extras")
        series = data.pop("series")
        topics = data.pop("topics")
        watchtowers = data.pop("watchtowers", None)
        for key, value in data.items():
            lines.append(f"  {key:<26} {value}")
        if watchtowers:
            lines.append("  watchtower services:")
            for name, stats in watchtowers.items():
                lines.append(f"    {name}:")
                for key, value in stats.items():
                    lines.append(f"      {key:<22} {value}")
        if topics:
            lines.append("  per-topic breakdown:")
            columns = (
                "subscribers",
                "honest_published",
                "honest_delivered",
                "delivery_rate",
                "spam_delivered",
            )
            lines.append(
                "    " + f"{'topic':<28}" + "  ".join(
                    f"{c:>17}" for c in columns
                )
            )
            for name, stats in topics.items():
                lines.append(
                    "    "
                    + f"{name:<28}"
                    + "  ".join(
                        f"{stats.get(c, 0):>17g}" for c in columns
                    )
                )
        if series:
            lines.append("  attack economics series (per engine epoch):")
            keys = [k for k in ("t", "spam_sent", "spam_delivered",
                                "registrations", "attacker_cost_wei",
                                "stake_burnt_wei") if k in series]
            lines.append("    " + "  ".join(f"{k:>18}" for k in keys))
            for row in zip(*(series[k] for k in keys)):
                lines.append(
                    "    " + "  ".join(f"{v:>18g}" for v in row)
                )
        if extras:
            lines.append("  extras:")
            for key, value in extras.items():
                lines.append(f"    {key:<24} {value}")
        interesting = {
            k: v
            for k, v in counters.items()
            if k.startswith("validator.") or k == "gossipsub.rejected"
        }
        if interesting:
            lines.append("  validator counters:")
            for key, value in interesting.items():
                lines.append(f"    {key:<24} {value}")
        lines.append(f"  fingerprint              {self.fingerprint()}")
        return "\n".join(lines)
