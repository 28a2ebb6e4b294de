"""Attack economics: what the adversary paid per delivered spam message.

Joins the engine's per-agent bookkeeping with chain state (burnt wei,
contract stake parameters, account ledgers via
:mod:`repro.core.economics`) into the cost-of-attack series the paper's
Sections I/IV argue about: a rational spammer's cumulative cost only
ever grows — every identity costs a stake, every slash burns part of
one — while the spam it buys stays bounded per identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.economics import EconomicsReport


@dataclass(frozen=True)
class EconomicsSample:
    """One point of the attack's cost/effect time series."""

    t: float
    #: Cumulative spam messages emitted / delivered to honest peers.
    spam_sent: int
    spam_delivered: int
    #: Cumulative identities bought (bootstrap registrations included).
    registrations: int
    slashes: int
    #: Cumulative stake put at risk: registrations * stake.
    attacker_spend_wei: int
    #: Attacker stake already lost to slashing (burn + reporter reward).
    attacker_stake_lost_wei: int
    #: Burnt share of the attacker's lost stakes.
    attacker_stake_burnt_wei: int
    #: Deployment-wide burnt wei (includes non-agent slashing, if any).
    stake_burnt_wei: int

    @property
    def attacker_cost_wei(self) -> int:
        """The headline cost-of-attack metric: registration spend plus
        the burnt share of slashed stakes. Both terms are cumulative,
        so the series is monotonically non-decreasing by construction —
        an attacker can only ever pay more."""
        return self.attacker_spend_wei + self.attacker_stake_burnt_wei


@dataclass(frozen=True)
class AgentReport:
    """One agent's final position."""

    node_id: str
    strategy: str
    registrations: int
    rotations: int
    slashes: int
    spam_sent: int
    budget_wei: int
    balance_wei: int
    stake_lost_wei: int
    stake_locked_wei: int
    #: Seconds from first violation to removal, per slashed identity.
    slash_latencies: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class AttackReport:
    """Whole-attack summary the scenario runner folds into its result."""

    agents: List[AgentReport]
    series: List[EconomicsSample]
    stake_wei: int
    burn_fraction: float
    #: Account-level view of the attacker peers (chain ledger join).
    economics: Optional[EconomicsReport] = None

    # -- totals ---------------------------------------------------------------

    @property
    def spam_sent(self) -> int:
        return sum(a.spam_sent for a in self.agents)

    @property
    def registrations(self) -> int:
        return sum(a.registrations for a in self.agents)

    @property
    def rotations(self) -> int:
        return sum(a.rotations for a in self.agents)

    @property
    def slashes(self) -> int:
        return sum(a.slashes for a in self.agents)

    @property
    def spend_wei(self) -> int:
        return self.registrations * self.stake_wei

    @property
    def slash_latencies(self) -> List[float]:
        out: List[float] = []
        for agent in self.agents:
            out.extend(agent.slash_latencies)
        return out

    def cost_per_delivered_spam(self, delivered: int) -> float:
        """Wei of attacker spend per spam message that reached an
        honest peer — infinite spend buys nothing once delivery is 0."""
        if delivered <= 0:
            return float("inf") if self.spend_wei else 0.0
        return self.spend_wei / delivered

    def series_dict(self) -> Dict[str, List[float]]:
        """Column-oriented series for ``ScenarioResult.series``."""
        columns: Dict[str, List[float]] = {
            "t": [],
            "spam_sent": [],
            "spam_delivered": [],
            "registrations": [],
            "attacker_cost_wei": [],
            "attacker_stake_lost_wei": [],
            "stake_burnt_wei": [],
        }
        for sample in self.series:
            columns["t"].append(sample.t)
            columns["spam_sent"].append(float(sample.spam_sent))
            columns["spam_delivered"].append(float(sample.spam_delivered))
            columns["registrations"].append(float(sample.registrations))
            columns["attacker_cost_wei"].append(
                float(sample.attacker_cost_wei)
            )
            columns["attacker_stake_lost_wei"].append(
                float(sample.attacker_stake_lost_wei)
            )
            columns["stake_burnt_wei"].append(float(sample.stake_burnt_wei))
        return columns
