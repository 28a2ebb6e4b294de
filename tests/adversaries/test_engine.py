"""The adversary engine against a real (small) deployment."""

from __future__ import annotations

from repro.adversaries.engine import AdversaryEngine
from repro.adversaries.strategies import build_strategy
from repro.core.config import ProtocolConfig
from repro.core.protocol import WakuRlnRelayNetwork

CONFIG = ProtocolConfig(verification_cache_size=4096)


def _network(peers: int = 8, seed: int = 11) -> WakuRlnRelayNetwork:
    net = WakuRlnRelayNetwork(
        peer_count=peers,
        config=CONFIG,
        seed=seed,
        degree=None,  # full mesh: every router sees every signal fast
        block_interval=2.0,
    )
    net.register_all()
    net.start()
    return net


def _engine_with_agent(net, strategy_name, budget_stakes, **params):
    engine = AdversaryEngine(net, start=2.0)
    engine.add_agent(
        net.peers[-1],
        build_strategy(strategy_name, **params),
        budget_wei=budget_stakes * net.config.stake_wei,
    )
    engine.launch()
    return engine


def test_rotating_agent_is_slashed_and_buys_new_identities():
    net = _network()
    engine = _engine_with_agent(net, "rotating-sybil", 4, burst=3)
    net.run(80.0)
    net.stop()
    agent = engine.agents[0]
    assert agent.slashes >= 2
    assert agent.rotations >= 1
    # Every rotation bought a genuinely fresh identity.
    commitments = [rec.commitment for rec in agent.identities]
    assert len(set(commitments)) == len(commitments)
    report = engine.report()
    assert report.spend_wei == agent.registrations * net.config.stake_wei
    assert report.rotations == agent.rotations


def test_budget_exhaustion_retires_the_agent():
    net = _network()
    # 2 stakes: the bootstrap identity plus exactly one rotation.
    engine = _engine_with_agent(net, "rotating-sybil", 2, burst=3)
    net.run(120.0)
    net.stop()
    agent = engine.agents[0]
    assert agent.retired
    assert agent.registrations == 2
    assert not agent.can_afford_identity()
    # Retirement is the economic endpoint: balance below one stake.
    assert agent.balance_wei < net.config.stake_wei


def test_burst_flooder_agent_never_rotates():
    net = _network()
    engine = _engine_with_agent(
        net, "burst-flood", 4, burst=4, epochs=2
    )
    net.run(80.0)
    net.stop()
    agent = engine.agents[0]
    assert agent.registrations == 1
    assert agent.slashes == 1
    assert agent.retired


def test_economics_series_is_monotone_and_consistent():
    net = _network()
    engine = _engine_with_agent(net, "rotating-sybil", 3, burst=3)
    net.run(80.0)
    net.stop()
    samples = engine.samples
    assert len(samples) >= 3
    costs = [s.attacker_cost_wei for s in samples]
    assert costs == sorted(costs)  # attacker cost only ever grows
    sent = [s.spam_sent for s in samples]
    assert sent == sorted(sent)
    last = samples[-1]
    assert last.registrations == engine.agents[0].registrations
    assert last.attacker_spend_wei == engine.spend_wei
    # The burnt share of lost stakes matches the chain's burn tally
    # (no other slashing happened in this run).
    assert last.attacker_stake_burnt_wei == net.chain.burnt_wei


def test_attack_report_joins_chain_ledgers():
    net = _network()
    engine = _engine_with_agent(net, "rotating-sybil", 3, burst=3)
    net.run(60.0)
    net.stop()
    report = engine.report()
    assert report.economics is not None
    ledger = report.economics.ledger(engine.agents[0].node_id)
    # All money that left the wallet went into stakes.
    assert -ledger.net_flow == report.spend_wei - report.stake_wei
    assert report.cost_per_delivered_spam(10) == report.spend_wei / 10
    assert report.cost_per_delivered_spam(0) == float("inf")


def test_agent_wallets_never_grow():
    """Regression: adversary peers must not finance rotations out of
    slash bounties. With several colluding agents, every wallet holds
    exactly budget minus stakes bought — no reporter rewards flowed
    back in — and nobody exceeds its budget."""
    net = _network(peers=10)
    engine = AdversaryEngine(net, start=2.0)
    budget_stakes = 2
    stake = net.config.stake_wei
    for peer in net.peers[-3:]:
        engine.add_agent(
            peer,
            build_strategy("rotating-sybil", burst=3),
            budget_wei=budget_stakes * stake,
        )
    engine.launch()
    net.run(120.0)
    net.stop()
    for agent in engine.agents:
        assert agent.registrations <= budget_stakes
        assert agent.balance_wei == (
            budget_stakes * stake - agent.registrations * stake
        )
        assert agent.peer.slashes_submitted == 0


def test_params_level_burst_overrides_group_default():
    """Regression: an explicit ``params={"burst": ...}`` used to crash
    the runner with a duplicate-keyword TypeError."""
    from repro.scenarios.runner import ScenarioRunner
    from repro.scenarios.spec import (
        AdversaryGroup,
        AdversaryMix,
        ScenarioSpec,
        TrafficModel,
    )

    spec = ScenarioSpec(
        name="params-burst-override",
        description="params burst beats the group default",
        peers=8,
        degree=None,
        duration=14.0,
        traffic=TrafficModel(active_fraction=0.0),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="burst-flood",
                    burst=2,
                    params={"burst": 7, "epochs": 1},
                ),
            ),
        ),
    )
    result = ScenarioRunner(spec).run()
    # One epoch of bursting before the slash lands: the params-level
    # burst (7) was emitted, not the group default (2).
    assert result.spam_published == 7


def test_baseline_comparison_mirrors_engine_groups():
    """The unprotected-relay comparison floods at each group's
    *resolved* burst over its real attack window."""
    from repro.scenarios.runner import ScenarioRunner
    from repro.scenarios.spec import (
        AdversaryGroup,
        AdversaryMix,
        ScenarioSpec,
        TrafficModel,
    )

    spec = ScenarioSpec(
        name="baseline-mirrors-groups",
        description="engine group vs unprotected relay",
        peers=10,
        degree=None,
        duration=30.0,
        traffic=TrafficModel(active_fraction=0.0),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="rotating-sybil",
                    burst=2,
                    params={"burst": 5},  # override must reach baseline
                ),
            ),
        ),
        compare_baseline=True,
    )
    result = ScenarioRunner(spec).run()
    epoch_length = spec.build_config().epoch_length
    # Persistent strategy: flood window spans the scenario past start,
    # at the params-resolved rate of 5 msgs/epoch.
    expected = int(
        (spec.duration - spec.adversaries.start)
        / (epoch_length / 5)
    )
    assert result.extras["baseline_spam_sent"] == expected
    assert result.extras["baseline_spam_delivered"] > 0


def test_engine_runs_are_deterministic():
    def fingerprint():
        net = _network(seed=23)
        engine = _engine_with_agent(net, "adaptive-backoff", 4, burst=6)
        net.run(80.0)
        net.stop()
        agent = engine.agents[0]
        return (
            agent.spam_sent,
            agent.registrations,
            agent.slashes,
            [s.attacker_cost_wei for s in engine.samples],
        )

    assert fingerprint() == fingerprint()
