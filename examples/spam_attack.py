#!/usr/bin/env python
"""Spam attack demo: a registered member floods the network and is
caught, financially slashed and globally removed.

Walks through the paper's core mechanism:

1. the spammer publishes several *different* messages in one epoch;
2. every message after the first carries a second Shamir share of the
   spammer's secret key (same internal nullifier, different share);
3. any routing peer that sees two shares reconstructs the key and
   submits it to the membership contract;
4. the contract removes the member, burns half the stake and pays the
   rest to the reporter — spam stops network-wide, permanently.

The attacker is a ``burst-flood`` adversary group of a scenario spec:
5 messages per epoch for 4 epochs, if it lasts that long, while a
quarter of the honest peers keep publishing once per epoch.

Run:  python examples/spam_attack.py
"""

from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import (
    AdversaryGroup,
    AdversaryMix,
    ScenarioSpec,
    TrafficModel,
)


def main() -> None:
    spec = ScenarioSpec(
        name="spam-attack-demo",
        description="one burst flooder among honest publishers",
        peers=20,
        duration=70.0,
        seed=99,
        traffic=TrafficModel(active_fraction=0.25),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup("burst-flood", burst=5, params={"epochs": 4}),
            ),
        ),
    )
    runner = ScenarioRunner(spec)
    spammer = runner.net.peers[-1]  # adversaries take the roster's tail
    stake = runner.net.config.stake_wei
    print(f"spammer: {spammer.node_id} (staked {stake / 1e18:.1f} ETH)")
    result = runner.run()

    print(f"spam messages sent:                {result.spam_published}")
    print(f"spam accepted per honest peer:     "
          f"{result.spam_per_honest_peer:.2f}")
    print(f"slash transactions submitted:      {result.slashes_submitted}")
    print(f"spammer still a member?            {spammer.is_registered}")
    print(f"spammer net loss:                  "
          f"{result.attacker_spend / 1e18:.2f} ETH")
    print(f"burnt:                             "
          f"{result.stake_burnt / 1e18:.2f} ETH")
    print(f"paid to reporters:                 "
          f"{result.reporter_rewards / 1e18:.2f} ETH")
    # Honest traffic continues unaffected.
    print(f"honest messages published:         {result.honest_published}")
    print(f"honest delivery rate:              {result.delivery_rate:.1%}")


if __name__ == "__main__":
    main()
