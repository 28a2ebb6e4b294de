"""Scenario-harness integration of delegated enforcement: spec
validation, fault-plan scaling, runner wiring and the registered
``delegated-enforcement*`` scenario family."""

import tempfile

import pytest

from repro.errors import ScenarioError, SimulationError
from repro.scenarios import parallel
from repro.scenarios.registry import scenario
from repro.scenarios.result import ScenarioResult
from repro.scenarios.runner import ScenarioRunner, run_scenario
from repro.scenarios.spec import FaultPlan, ScenarioSpec, WatchtowerSpec

SMOKE_PEERS = 20
SMOKE_DURATION = 40.0


def smoke(name, seed=None):
    spec = scenario(name)
    if seed is not None:
        spec = spec.scaled(seed=seed)
    return run_scenario(spec, peers=SMOKE_PEERS, duration=SMOKE_DURATION)


class TestSpecValidation:
    def test_faults_require_watchtowers(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="x",
                description="d",
                peers=10,
                duration=10.0,
                faults=(FaultPlan("watchtower-0", crash_at=1.0),),
            )

    def test_fault_target_must_name_a_service(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="x",
                description="d",
                peers=10,
                duration=10.0,
                watchtowers=WatchtowerSpec(count=1),
                faults=(FaultPlan("watchtower-7", crash_at=1.0),),
            )

    def test_restart_must_follow_crash(self):
        with pytest.raises(ScenarioError):
            FaultPlan("watchtower-0", crash_at=5.0, restart_at=3.0)

    def test_scaled_rescales_fault_times(self):
        spec = ScenarioSpec(
            name="x",
            description="d",
            peers=10,
            duration=100.0,
            watchtowers=WatchtowerSpec(count=1),
            faults=(
                FaultPlan("watchtower-0", crash_at=10.0, restart_at=25.0),
            ),
        )
        scaled = spec.scaled(duration=40.0)
        assert scaled.faults[0].crash_at == pytest.approx(4.0)
        assert scaled.faults[0].restart_at == pytest.approx(10.0)

    def test_watchtower_topics_must_be_protected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="x",
                description="d",
                peers=10,
                duration=10.0,
                watchtowers=WatchtowerSpec(topics=("/waku/2/ghost",)),
            )


class TestResultSerialization:
    def test_watchtower_keys_absent_without_services(self):
        """Historical fingerprints must not shift for scenarios that
        never configure watchtowers."""
        result = ScenarioResult(
            scenario="s",
            seed=0,
            peers_started=1,
            peers_final=1,
            joined=0,
            left=0,
            honest_published=0,
            honest_delivered=0,
            delivery_rate=0.0,
            spam_published=0,
            spam_delivered=0,
            spam_per_honest_peer=0.0,
            slashes_submitted=0,
            members_slashed=0,
            proof_verifications=0,
            verification_cache_hits=0,
        )
        data = result.to_dict()
        assert "watchtower_rewards" not in data
        assert "watchtowers" not in data

    def test_watchtower_keys_present_with_services(self):
        result = smoke("delegated-enforcement")
        data = result.to_dict()
        assert data["watchtower_rewards"] > 0
        assert "watchtower-0" in data["watchtowers"]
        assert "recovery_time" in data
        assert "missed_slashes" in data


class TestDelegatedEnforcementScenario:
    def test_watchtower_is_sole_enforcer(self):
        result = smoke("delegated-enforcement")
        stats = result.watchtowers["watchtower-0"]
        # Full delegation: every slash submission came from the tower.
        assert result.slashes_submitted == stats["submitted"]
        assert result.members_slashed > 0
        assert stats["slashes_won"] == result.members_slashed
        assert result.missed_slashes == 0

    def test_fees_and_rewards_surface(self):
        result = smoke("delegated-enforcement")
        stats = result.watchtowers["watchtower-0"]
        # Every honest peer paid the one-off delegation fee.
        assert stats["delegators"] > 0
        assert result.delegation_fees == stats["delegators"] * 10**15
        assert result.watchtower_rewards == stats["rewards_wei"]
        assert stats["rewards_wei"] > 0
        assert stats["paid_out_wei"] + stats["kept_wei"] == (
            stats["rewards_wei"]
        )

    def test_deterministic_fingerprint(self):
        first = smoke("delegated-enforcement")
        second = smoke("delegated-enforcement")
        assert first.fingerprint() == second.fingerprint()


class TestCrashScenario:
    def test_crash_and_recovery_recorded(self):
        result = smoke("delegated-enforcement-crash")
        stats = result.watchtowers["watchtower-0"]
        assert stats["crashes"] == 1
        assert stats["replayed_events"] > 0
        assert result.members_slashed > 0
        assert stats["pending"] == 0
        assert result.missed_slashes == 0


class TestRaceScenario:
    def test_exactly_one_winner_per_offender(self):
        result = smoke("delegated-enforcement-races")
        towers = result.watchtowers
        assert len(towers) == 2
        won = sum(s["slashes_won"] for s in towers.values())
        lost = sum(s["lost_races"] for s in towers.values())
        assert won == result.members_slashed
        assert won + lost == sum(
            s["submitted"] for s in towers.values()
        )
        # Both towers watched the same traffic.
        detected = {s["detected"] for s in towers.values()}
        assert len(detected) == 1


class TestRunCleanup:
    """A run that raises still closes every watchtower store and
    deletes the directory holding them."""

    @pytest.mark.parametrize("workers", (None, 1), ids=("serial", "windowed"))
    def test_a_raising_run_leaves_no_store_behind(
        self, workers, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spec = scenario("delegated-enforcement").scaled(
            peers=SMOKE_PEERS,
            duration=SMOKE_DURATION,
            shards=2 if workers else None,
            parallel_workers=workers,
        )
        runner = ScenarioRunner(spec)

        def boom(*_args):
            raise RuntimeError("boom")

        if workers:
            monkeypatch.setattr(parallel, "drive_in_process", boom)
        else:
            monkeypatch.setattr(runner.net, "run", boom)
        with pytest.raises(RuntimeError, match="boom"):
            runner.run()
        assert runner._watchtowers, "the run built no watchtower"
        for service in runner._watchtowers:
            with pytest.raises(SimulationError, match="is closed"):
                service.store.cursor()
        assert list(tmp_path.iterdir()) == []
