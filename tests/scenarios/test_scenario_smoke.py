"""Smoke-run every registered scenario at tiny scale.

Each scenario must complete, produce sane metrics, and (per seed) be
fully deterministic. Full-scale runs are opt-in via ``-m slow``.
"""

from __future__ import annotations

import pytest

from repro.scenarios.registry import all_scenarios, scenario, scenario_names
from repro.scenarios.runner import run_scenario

SMOKE_PEERS = 20
SMOKE_DURATION = 40.0

#: Captured at collection time; the guard test below asserts no
#: scenario registered later escapes the smoke parametrization.
SMOKE_NAMES = [spec.name for spec in all_scenarios()]

#: Known answers: each built-in's fingerprint at SMOKE_PEERS /
#: SMOKE_DURATION and its own seed, the same under any PYTHONHASHSEED.
#: A refactor that must not change behaviour keeps every one; a change
#: that moves them all alike (which the cross-cell comparisons of the
#: parallel matrix cannot see) fails here.
SMOKE_FINGERPRINTS = {
    "adaptive-flood": "66ef666ddd2ba35f",
    "burst-spammer": "c3a7f793b45fc2cf",
    "city-scale-50k": "51d72f0f34b536d5",
    "coordinated-multi-spammer": "a2a914d1a840cdee",
    "delegated-enforcement": "d2102c40b81cc219",
    "delegated-enforcement-crash": "dd886e0bb0d5c687",
    "delegated-enforcement-races": "fb17678c1af95cd1",
    "high-churn": "3903228234cb7631",
    "honest-steady": "91fd0eb9f68e7555",
    "low-and-slow-probe": "7351d52b8ba9099e",
    "million-id-city": "781ef7690c6d250a",
    "mixed-baseline-comparison": "82344eeffbaaa9ed",
    "multi-topic-5k": "04e5ecbd81d2900a",
    "multi-topic-churn": "d670060995ec2b74",
    "rotating-sybil-economics": "3c29b7651c4d60d0",
    "stale-root-sync-lag": "eaea7162661b5fa6",
}


@pytest.mark.parametrize("name", SMOKE_NAMES)
def test_every_registered_scenario_smokes(name):
    spec = scenario(name)
    result = run_scenario(spec, peers=SMOKE_PEERS, duration=SMOKE_DURATION)
    assert result.scenario == name
    assert result.fingerprint() == SMOKE_FINGERPRINTS[name]
    assert result.peers_started == SMOKE_PEERS
    assert result.sim_time == pytest.approx(SMOKE_DURATION)
    assert result.peers_final == (
        SMOKE_PEERS + result.joined - result.left
    )
    if spec.traffic.active_fraction > 0:
        assert result.honest_published > 0
        # Under churn the rate can marginally exceed 1: late joiners
        # may catch older messages through IHAVE/IWANT gossip.
        bound = 1.05 if spec.churn.active else 1.0
        assert 0.0 < result.delivery_rate <= bound
    if spec.adversaries.total_count:
        # Rate violations detected and punished, and the punishment
        # settled on-chain *during* the run: stake burnt, reporters paid.
        assert result.spam_published > 0
        assert result.counters.get("validator.double_signals", 0) > 0
        assert result.members_slashed > 0
        config = spec.build_config()
        assert result.stake_burnt > 0
        assert result.reporter_rewards > 0
        # Conservation: every slashed stake splits into burn + reward.
        assert (
            result.stake_burnt + result.reporter_rewards
            == result.members_slashed * config.stake_wei
        )
    groups = spec.adversaries.groups
    if groups and all(g.strategy == "burst-flood" for g in groups):
        # Spam containment: honest peers saw at most ~1 relayed spam
        # message per spammer-epoch, never the whole burst.
        burst = min(g.burst for g in groups)
        per_peer_bound = result.spam_published / max(burst, 1) + 1
        assert result.spam_per_honest_peer <= per_peer_bound
    if spec.adversaries.groups:
        # Engine scenarios emit the attack-economics series; attacker
        # cost is monotonically non-decreasing by construction.
        costs = result.series.get("attacker_cost_wei", [])
        assert costs, "engine scenarios must produce a cost series"
        assert costs == sorted(costs)
        assert result.attacker_spend > 0
        assert result.attacker_spend == (
            result.series["registrations"][-1] * spec.build_config().stake_wei
        )
    if spec.churn.active:
        assert result.joined > 0 or result.left > 0
    if spec.compare_baseline:
        assert "baseline_spam_delivered" in result.extras
        assert (
            result.extras["baseline_spam_per_honest_peer"]
            > result.spam_per_honest_peer
        )


def test_rotating_sybil_economics_rotates_at_tiny_scale():
    """The acceptance scenario: at least one identity rotation, with
    attacker cost climbing while spam keeps being delivered."""
    result = run_scenario(
        scenario("rotating-sybil-economics"),
        peers=SMOKE_PEERS,
        duration=SMOKE_DURATION,
    )
    assert result.identity_rotations >= 1
    assert result.members_slashed >= 1
    assert result.spam_delivered > 0
    costs = result.series["attacker_cost_wei"]
    assert costs == sorted(costs)
    assert costs[-1] > costs[0]
    # Determinism: the same spec and seed reproduce the same run.
    again = run_scenario(
        scenario("rotating-sybil-economics"),
        peers=SMOKE_PEERS,
        duration=SMOKE_DURATION,
    )
    assert again.fingerprint() == result.fingerprint()


def test_smoke_scale_is_within_ci_budget():
    """Guard the ≤50-peer promise the tier-1 suite relies on."""
    assert SMOKE_PEERS <= 50


def test_every_registered_scenario_is_smoke_covered():
    """Collection guard: a scenario registered without smoke coverage
    (e.g. from a plugin or a later import) must fail loudly here."""
    assert set(SMOKE_NAMES) == set(scenario_names()), (
        "scenarios registered after smoke collection: "
        f"{sorted(set(scenario_names()) - set(SMOKE_NAMES))}"
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", [spec.name for spec in all_scenarios()]
)
def test_full_scale_scenarios(name):
    """The registered (full) scale; run with ``pytest -m slow``."""
    result = run_scenario(scenario(name))
    assert result.sim_time > 0
    assert result.delivery_rate > 0.5
