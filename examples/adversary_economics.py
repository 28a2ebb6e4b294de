#!/usr/bin/env python
"""The closed economic loop: an adaptive attacker vs the network.

A rotating sybil on a fixed budget spams, gets slashed on-chain
mid-run, buys fresh identities until broke — and the attack report
shows what every delivered spam message cost it. This is the paper's
central claim made runnable: spam is not impossible, it is *priced*.

Run:  python examples/adversary_economics.py
"""

from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    AdversaryGroup,
    AdversaryMix,
    ScenarioSpec,
    TrafficModel,
)


def main() -> None:
    spec = ScenarioSpec(
        name="example-rotating-sybil",
        description="one rotating sybil on a 4-stake budget",
        peers=30,
        duration=90.0,
        block_interval=5.0,
        traffic=TrafficModel(messages_per_epoch=0.5, active_fraction=0.3),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(
                    strategy="rotating-sybil",
                    count=1,
                    budget_stakes=4,
                    burst=4,
                ),
            ),
        ),
    )
    result = run_scenario(spec)
    print(result.format())
    stake = spec.build_config().stake_wei
    print()
    print(
        f"The attacker bought {result.series['registrations'][-1]:.0f} "
        f"identities ({result.attacker_spend / stake:.0f} stakes), "
        f"rotated {result.identity_rotations}x, and was slashed "
        f"{result.members_slashed}x — burning "
        f"{result.stake_burnt / stake:.1f} stakes — to deliver "
        f"{result.spam_delivered} spam messages."
    )


if __name__ == "__main__":
    main()
