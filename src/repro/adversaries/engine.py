"""The adversary engine: drives attacker agents on the simulated clock.

One :class:`AdversaryEngine` owns every agent of a run. Each epoch it

1. polls the chain's event log and routes ``MemberRemoved`` events to
   the agent whose identity was slashed (the agents' chain-awareness —
   the same observe/react loop raiden-services uses for channel
   events);
2. lets slashed agents buy a fresh identity while their budget allows
   (settled through the real membership contract, so the stake flows
   mid-run, not post-hoc);
3. asks each live agent's strategy how many messages to emit and
   publishes them through the agent's peer (distinct payloads — every
   message past the first per epoch is a double-signal);
4. appends one :class:`~repro.adversaries.report.EconomicsSample`, so
   cost-of-attack and stake-burnt-over-time series come out of every
   run for free.

The engine is deterministic: agents act in insertion order and take no
randomness beyond what the peers themselves draw from the seeded
simulator RNG.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..core.economics import build_report
from ..eth.cursor import EventCursor
from ..sim.metrics import BoundedSeries
from .base import AdversaryAgent, AdversaryStrategy
from .report import AgentReport, AttackReport, EconomicsSample

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.peer import WakuRlnRelayPeer
    from ..core.protocol import WakuRlnRelayNetwork


class AdversaryEngine:
    """Schedules and observes a population of attacker agents."""

    def __init__(
        self,
        net: "WakuRlnRelayNetwork",
        start: float = 2.0,
        spam_delivered_probe: Optional[Callable[[], int]] = None,
        max_series_samples: Optional[int] = None,
    ) -> None:
        self.net = net
        self.start = start
        #: Runner-supplied: cumulative spam deliveries to honest peers.
        self.spam_delivered_probe = spam_delivered_probe or (lambda: 0)
        self.agents: List[AdversaryAgent] = []
        #: One economics sample per epoch tick. Unbounded by default
        #: (every epoch is kept); a scenario with streaming metrics on
        #: caps it with a BoundedSeries so a 10k-epoch run holds O(cap)
        #: samples, uniformly decimated over the whole run.
        self.samples = (
            BoundedSeries(max_series_samples)
            if max_series_samples is not None
            else []
        )
        self.epoch_index = 0
        self._commitment_to_agent: Dict[int, AdversaryAgent] = {}
        self._cursor = EventCursor(net.chain, net.contract.address)
        self._stopped = False
        self._initial_balances: Dict[str, int] = {}

    # -- population -------------------------------------------------------------

    def add_agent(
        self,
        peer: "WakuRlnRelayPeer",
        strategy: AdversaryStrategy,
        budget_wei: int,
        target_topics=(),
    ) -> AdversaryAgent:
        """Enroll ``peer`` as an attacker with ``budget_wei`` to spend.

        The peer must already hold its bootstrap registration (the
        scenario runner registers everyone up front); its wallet is
        reset to the attack budget net of that first stake.
        ``target_topics`` points the agent's spam at specific RLN
        topics (the peer joins any it has not joined yet). Agents do
        not claim slashing bounties — a colluding operation does not
        police itself, and reporter rewards flowing back into attacker
        wallets would refill the budget the attack is supposed to
        exhaust (the cost series would under-state the true cost).
        """
        for topic in target_topics:
            peer.join_rln_topic(topic)
        agent = AdversaryAgent(
            peer, strategy, budget_wei, target_topics=tuple(target_topics)
        )
        agent.fund()
        peer.disable_slash_reporting()
        self.agents.append(agent)
        self._commitment_to_agent[int(peer.commitment.element)] = agent
        self._initial_balances[peer.node_id] = agent.balance_wei
        return agent

    # -- scheduling ----------------------------------------------------------------

    def launch(self) -> None:
        """Begin ticking once per epoch, starting at ``self.start``."""
        sim = self.net.simulator
        epoch_length = self.net.config.epoch_length

        def tick(_sim) -> None:
            self._tick()
            if not self._stopped:
                sim.schedule(epoch_length, tick, label="adversary-engine")

        self._stopped = False
        sim.schedule(self.start + 0.01, tick, label="adversary-engine")

    def stop(self) -> None:
        self._stopped = True

    # -- one engine round -----------------------------------------------------------

    def _tick(self) -> None:
        now = self.net.simulator.now
        self._observe_chain(now)
        for agent in self.agents:
            self._act(agent, now)
        self.epoch_index += 1
        self._sample(now)

    def _observe_chain(self, now: float) -> None:
        """Route fresh MemberRemoved events to their slashed agents."""
        for event in self._cursor.poll():
            if event.name != "MemberRemoved":
                continue
            agent = self._commitment_to_agent.get(event.args["pk"])
            if agent is not None:
                agent.on_slashed(event.args["pk"], now)

    def _act(self, agent: AdversaryAgent, now: float) -> None:
        if agent.retired:
            return
        peer = agent.peer
        if agent.awaiting_registration:
            if peer.is_registered:
                agent.awaiting_registration = False
            else:
                return  # rotation still settling / syncing
        if not peer.is_registered:
            # Current identity is gone: rotate or retire.
            if not agent.strategy.rotate_on_slash:
                agent.retired = True
                return
            if not agent.can_afford_identity():
                agent.retired = True  # economics did their job
                return
            self._commitment_to_agent[agent.rotate(now)] = agent
            return
        if agent.strategy.finished(agent, self.epoch_index):
            agent.retired = True
            return
        count = agent.strategy.messages_for_epoch(agent, self.epoch_index)
        if count > 0:
            agent.emit_spam(count, now)

    def _sample(self, now: float) -> None:
        burn = self.burn_fraction
        slashes = sum(a.slashes for a in self.agents)
        stake = self.stake_wei
        self.samples.append(
            EconomicsSample(
                t=now,
                spam_sent=sum(a.spam_sent for a in self.agents),
                spam_delivered=self.spam_delivered_probe(),
                registrations=sum(a.registrations for a in self.agents),
                slashes=slashes,
                attacker_spend_wei=sum(a.spend_wei for a in self.agents),
                attacker_stake_lost_wei=slashes * stake,
                attacker_stake_burnt_wei=slashes * int(stake * burn),
                stake_burnt_wei=self.net.chain.burnt_wei,
            )
        )

    # -- reporting --------------------------------------------------------------------

    @property
    def stake_wei(self) -> int:
        return self.net.contract.stake_wei

    @property
    def burn_fraction(self) -> float:
        return self.net.contract.burn_fraction

    @property
    def spend_wei(self) -> int:
        return sum(a.spend_wei for a in self.agents)

    def report(self) -> AttackReport:
        """Snapshot the attack's economics (callable mid-run or after)."""
        agents = [
            AgentReport(
                node_id=a.node_id,
                strategy=a.strategy.name,
                registrations=a.registrations,
                rotations=a.rotations,
                slashes=a.slashes,
                spam_sent=a.spam_sent,
                budget_wei=a.budget_wei,
                balance_wei=a.balance_wei,
                stake_lost_wei=a.stake_lost_wei,
                stake_locked_wei=(a.registrations - a.slashes)
                * self.stake_wei,
                slash_latencies=[
                    latency
                    for record in a.identities
                    if (latency := record.slash_latency) is not None
                ],
            )
            for a in self.agents
        ]
        economics = (
            build_report(
                self.net.chain,
                self.net.contract,
                [a.peer for a in self.agents],
                dict(self._initial_balances),
            )
            if self.agents
            else None
        )
        return AttackReport(
            agents=agents,
            series=list(self.samples),
            stake_wei=self.stake_wei,
            burn_fraction=self.burn_fraction,
            economics=economics,
        )
