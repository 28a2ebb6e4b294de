"""Experiments E5, E6, E10: gas costs, propagation latency, economics."""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..baselines.onchain_messaging import OnChainMessagingSystem
from ..core.economics import build_report
from ..crypto.keys import MembershipKeyPair
from ..eth.chain import Blockchain
from ..eth.contracts import MembershipRegistry, OnChainTreeContract
from ..scenarios import (
    AdversaryGroup,
    AdversaryMix,
    ScenarioRunner,
    ScenarioSpec,
    TrafficModel,
)
from ..sim.metrics import Histogram
from .scaling import propagation_run

Headers = Sequence[str]
Rows = List[Sequence]

STAKE = 10**18


def _measure_contract(contract, member_count: int) -> Tuple[int, int]:
    """(register gas, slash gas) with ``member_count`` existing members."""
    chain = Blockchain()
    chain.deploy(contract)
    rng = random.Random(99)
    pairs = [MembershipKeyPair.generate(rng) for _ in range(member_count + 1)]
    for i, pair in enumerate(pairs[:member_count]):
        chain.create_account(f"m{i}", balance=2 * STAKE)
        receipt = chain.call_now(
            f"m{i}",
            contract.address,
            "register",
            int(pair.commitment.element),
            value=STAKE,
        )
        assert receipt.success, receipt.error
    chain.create_account("probe", balance=4 * STAKE)
    register_receipt = chain.call_now(
        "probe",
        contract.address,
        "register",
        int(pairs[member_count].commitment.element),
        value=STAKE,
    )
    assert register_receipt.success, register_receipt.error
    slash_receipt = chain.call_now(
        "probe",
        contract.address,
        "slash",
        int(pairs[member_count].secret.element),
    )
    assert slash_receipt.success, slash_receipt.error
    return register_receipt.gas_used, slash_receipt.gas_used


def gas_cost_experiment(
    member_counts: Sequence[int] = (0, 16, 64, 256),
    depth: int = 20,
) -> Tuple[Headers, Rows]:
    """E5 — registry (paper) vs on-chain tree (original RLN) gas."""
    headers = (
        "existing members",
        "registry reg",
        "registry slash",
        "tree reg",
        "tree slash",
        "reg ratio",
    )
    rows: Rows = []
    for count in member_counts:
        reg_gas, reg_slash = _measure_contract(
            MembershipRegistry("m", stake_wei=STAKE), count
        )
        tree_gas, tree_slash = _measure_contract(
            OnChainTreeContract("m", depth=depth, stake_wei=STAKE), count
        )
        rows.append(
            (
                count,
                reg_gas,
                reg_slash,
                tree_gas,
                tree_slash,
                tree_gas / reg_gas,
            )
        )
    return headers, rows


def gas_vs_depth_experiment(
    depths: Sequence[int] = (10, 16, 20, 26, 32),
) -> Tuple[Headers, Rows]:
    """E5b — on-chain tree cost scales with depth; registry does not."""
    headers = ("depth", "registry reg", "tree reg", "ratio")
    registry_gas, _ = _measure_contract(
        MembershipRegistry("m", stake_wei=STAKE), 4
    )
    rows: Rows = []
    for depth in depths:
        tree_gas, _ = _measure_contract(
            OnChainTreeContract("m", depth=depth, stake_wei=STAKE), 4
        )
        rows.append((depth, registry_gas, tree_gas, tree_gas / registry_gas))
    return headers, rows


def propagation_experiment(
    peer_count: int = 50,
    messages: int = 20,
    block_interval: float = 13.0,
    seed: int = 3,
    model_crypto_latency: bool = True,
) -> Tuple[Headers, Rows]:
    """E6 — off-chain gossip vs on-chain mining latency.

    Off-chain: messages propagate over the RLN relay network (including
    modeled proving/verification cost when enabled). On-chain: each
    message is a transaction that becomes visible when mined.
    """
    latencies, _runner = propagation_run(
        "prop",
        peer_count,
        seed,
        messages,
        offset=0.5,
        tail=60.0,
        block_interval=block_interval,
        model_crypto_latency=model_crypto_latency,
    )

    onchain = OnChainMessagingSystem(block_interval=block_interval)
    onchain_lat = Histogram()
    now = 0.0
    rng = random.Random(seed + 1)
    next_block = block_interval
    for m in range(messages):
        now += rng.uniform(0, 2 * block_interval / max(1, messages // 4))
        onchain.post(payload_hash=m + 1, epoch=int(now), now=now)
        while next_block <= now:
            onchain.mine(next_block)
            next_block += block_interval
    while onchain.deliveries != [] and len(onchain.deliveries) < messages:
        onchain.mine(next_block)
        next_block += block_interval
    for delivery in onchain.deliveries:
        onchain_lat.observe(delivery.latency)

    headers = (
        "system",
        "mean latency (s)",
        "p99 latency (s)",
        "max (s)",
        "deliveries",
    )
    rows: Rows = [
        (system, h.mean, h.percentile(99), h.maximum, h.count)
        for system, h in (
            ("Waku-RLN-Relay (off-chain gossip)", latencies),
            (f"on-chain signals ({block_interval:.0f}s blocks)", onchain_lat),
        )
    ]
    return headers, rows


def economics_experiment(
    spammer_count: int = 3,
    peer_count: int = 20,
    seed: int = 17,
) -> Tuple[Headers, Rows]:
    """E10 — the attacker always pays: every spamming identity loses
    its stake; reporters collect the rewards.

    Each spammer double-signals once (a burst of two in one epoch), 5 s
    into a run with no honest traffic.
    """
    runner = ScenarioRunner(
        ScenarioSpec(
            name="economics",
            description="each spammer sends one double-signal",
            peers=peer_count,
            duration=65.0,
            seed=seed,
            traffic=TrafficModel(messages_per_epoch=0),
            adversaries=AdversaryMix(
                start=5.0,
                groups=(
                    AdversaryGroup(
                        "burst-flood",
                        count=spammer_count,
                        burst=2,
                        params={"epochs": 1},
                    ),
                ),
            ),
        )
    )
    net = runner.net
    initial = {p.node_id: p.balance for p in net.peers}
    # Adversaries take the tail of the roster.
    spammer_ids = {p.node_id for p in net.peers[peer_count - spammer_count :]}
    result = runner.run()
    report = build_report(net.chain, net.contract, net.peers, initial)
    stake = net.config.stake_wei
    reporters = [
        l
        for l in report.ledgers
        if l.node_id not in spammer_ids and l.net_flow > -stake
    ]
    headers = ("quantity", "value (wei)", "value (ETH)")
    spend = result.attacker_spend
    burnt = result.stake_burnt
    rewards = result.reporter_rewards
    rows: Rows = [
        ("stake per member", stake, stake / 1e18),
        ("attackers", spammer_count, ""),
        ("total attacker loss", spend, spend / 1e18),
        ("total burnt", burnt, burnt / 1e18),
        ("total reporter rewards", rewards, rewards / 1e18),
        ("rewarded reporters", len(reporters), ""),
    ]
    return headers, rows
