"""Adaptive, chain-aware attacker agents.

The pluggable adversary engine that closes the paper's economic loop:
budget-constrained agents register through the membership contract,
spam under a chosen :class:`~repro.adversaries.base.AdversaryStrategy`,
watch the chain for their own slashing, and rotate to fresh identities
while funds remain. :class:`~repro.adversaries.report.AttackReport`
turns the run into cost-per-delivered-spam and stake-burnt-over-time
series.

Use through the scenario harness::

    from repro.scenarios.spec import (
        AdversaryGroup,
        AdversaryMix,
        ScenarioSpec,
    )

    spec = ScenarioSpec(
        name="my-attack",
        description="two rotating sybils on a budget of 6 stakes",
        adversaries=AdversaryMix(groups=(
            AdversaryGroup("rotating-sybil", count=2, budget_stakes=6),
        )),
    )

or drive an :class:`~repro.adversaries.engine.AdversaryEngine`
directly against a :class:`~repro.core.protocol.WakuRlnRelayNetwork`
(see ``tests/adversaries/``).
"""
