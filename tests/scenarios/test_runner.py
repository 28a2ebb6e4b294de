"""Scenario spec/registry/runner unit tests: determinism, scaling,
churn bookkeeping and CLI plumbing."""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.errors import ConfigError, ScenarioError, ScenarioSpecError
from repro.scenarios.registry import (
    _REGISTRY,
    register_scenario,
    scenario,
    scenario_names,
)
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    AdversaryGroup,
    AdversaryMix,
    ChurnModel,
    FaultPlan,
    ScenarioSpec,
    TopicSpec,
    TrafficModel,
    WatchtowerSpec,
)


REQUIRED_BUILTINS = {
    "honest-steady",
    "burst-spammer",
    "coordinated-multi-spammer",
    "high-churn",
    "stale-root-sync-lag",
    "mixed-baseline-comparison",
}


def test_builtin_registry_complete():
    assert REQUIRED_BUILTINS <= set(scenario_names())


def test_unknown_scenario_rejected():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        scenario("no-such-scenario")


def test_duplicate_registration_refused():
    spec = scenario("honest-steady")
    with pytest.raises(ScenarioError, match="already registered"):
        register_scenario(spec)
    register_scenario(spec, replace=True)  # explicit replace is fine
    assert _REGISTRY[spec.name] is spec


def _flooders(count: int) -> AdversaryMix:
    return AdversaryMix(groups=(AdversaryGroup("burst-flood", count=count),))


def test_spec_validation():
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="x", description="d", peers=1)
    with pytest.raises(ScenarioError):
        ScenarioSpec(
            name="x",
            description="d",
            peers=3,
            adversaries=_flooders(3),
        )
    with pytest.raises(ScenarioError):
        ScenarioSpec(
            name="x", description="d", config_overrides={"bogus_knob": 1}
        )
    with pytest.raises(ScenarioError):
        TrafficModel(active_fraction=1.5)
    with pytest.raises(ScenarioError):
        ChurnModel(join_interval=-1)


@pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, "7"])
def test_out_of_range_seed_is_a_typed_spec_error(seed):
    with pytest.raises(ScenarioSpecError) as excinfo:
        ScenarioSpec(name="x", description="d", seed=seed)
    assert excinfo.value.problems == ("seed",)
    with pytest.raises(ScenarioSpecError) as excinfo:
        scenario("honest-steady").scaled(seed=seed)
    assert excinfo.value.problems == ("seed",)
    for edge in (0, (1 << 64) - 1):
        assert scenario("honest-steady").scaled(seed=edge).seed == edge


@pytest.mark.parametrize(
    "field,value",
    [
        ("duration", float("nan")),  # run() would never return
        ("duration", float("inf")),
        ("block_interval", float("nan")),
        ("block_interval", float("-inf")),
        ("degree", -1),
        ("degree", 0),
    ],
)
def test_unrunnable_clock_or_degree_is_a_typed_spec_error(field, value):
    with pytest.raises(ScenarioSpecError) as excinfo:
        ScenarioSpec(name="x", description="d", **{field: value})
    assert excinfo.value.problems == (field,)
    if field == "duration":
        with pytest.raises(ScenarioSpecError):
            scenario("honest-steady").scaled(duration=value)
    assert ScenarioSpec(name="x", description="d", degree=None).degree is None


@pytest.mark.parametrize(
    "field, value",
    [
        ("peers", 2.5),
        ("pre_registered", 2.5),
        ("parallel_workers", None),
        ("shards", 2.5),
    ],
)
def test_a_wrongly_typed_size_is_a_typed_spec_error(field, value):
    # Each of these used to pass the spec and fail later with a bare
    # TypeError (or never fail at all).
    with pytest.raises(ScenarioSpecError) as excinfo:
        ScenarioSpec(name="x", description="d", **{field: value})
    assert excinfo.value.problems == (field,)
    assert field in str(excinfo.value)


NAN, INF = float("nan"), float("inf")


CASES = [
    # The run died later: "event queue went backwards in time".
    (TrafficModel, {"messages_per_epoch": NAN}, "messages_per_epoch"),
    (ChurnModel, {"join_interval": NAN}, "join_interval"),
    # A bare ValueError from random.choices.
    (TopicSpec, {"name": "/t", "traffic_weight": INF}, "traffic_weight"),
    # Bare TypeErrors.
    (AdversaryGroup, {"strategy": "burst-flood", "count": 1.5}, "count"),
    (WatchtowerSpec, {"count": 1.5}, "count"),
    # Accepted silently.
    (ChurnModel, {"max_joins": 2.5}, "max_joins"),
    (AdversaryGroup, {"strategy": "burst-flood", "burst": NAN}, "burst"),
    # Ran to completion.
    (TrafficModel, {"payload_bytes": -1}, "payload_bytes"),
    # Died mid-run: "event queue went backwards in time".
    (TrafficModel, {"start": NAN}, "start"),
    (AdversaryMix, {"start": NAN}, "start"),
    (ChurnModel, {"start": NAN}, "start"),
    (FaultPlan, {"target": "watchtower-0", "crash_at": NAN}, "crash_at"),
    (
        FaultPlan,
        {"target": "watchtower-0", "crash_at": 1.0, "restart_at": NAN},
        "restart_at",
    ),
    # Died mid-run: "periodic interval must be positive".
    (WatchtowerSpec, {"sync_interval": 0.0}, "sync_interval"),
    # Accepted silently.
    (WatchtowerSpec, {"delegation_fee_wei": 2.5}, "delegation_fee_wei"),
    # A plain ScenarioError with no problems.
    (TrafficModel, {"active_fraction": NAN}, "active_fraction"),
    (
        TopicSpec,
        {"name": "/t", "subscribe_fraction": NAN},
        "subscribe_fraction",
    ),
    (WatchtowerSpec, {"reward_cut": NAN}, "reward_cut"),
    (WatchtowerSpec, {"delegate_fraction": NAN}, "delegate_fraction"),
]


@pytest.mark.parametrize(
    "cls, kwargs, field",
    CASES,
    ids=[f"{cls.__name__}.{field}" for cls, _, field in CASES],
)
def test_an_unrunnable_sub_spec_field_is_a_typed_spec_error(
    cls, kwargs, field
):
    with pytest.raises(ScenarioSpecError) as excinfo:
        cls(**kwargs)
    assert excinfo.value.problems == (field,)
    assert field in str(excinfo.value)


CONFIG_CASES = [
    # A bare ValueError, a ZeroDivisionError and an OverflowError.
    ("epoch_length", NAN),
    ("epoch_length", 0),
    ("max_network_delay", INF),
    # Ran, and paid reporters a negative reward: value not conserved.
    ("burn_fraction", 2.0),
    # Ran silently.
    ("stake_wei", -1),
    ("root_window", 0),
    # Silently turned the verification cache off.
    ("verification_cache_size", -5),
    # A bare ValueError once the runner built the config.
    ("membership_sub_depth", 20),
    # Died mid-run: "periodic interval must be positive".
    ("sync_interval", 0.0),
]


@pytest.mark.parametrize(
    "field, value",
    CONFIG_CASES,
    ids=[f"{field}={value}" for field, value in CONFIG_CASES],
)
def test_an_out_of_range_config_override_is_a_typed_spec_error(field, value):
    with pytest.raises(ScenarioSpecError) as excinfo:
        ScenarioSpec(
            name="x", description="d", peers=6, config_overrides={field: value}
        )
    assert excinfo.value.problems == (f"config_overrides.{field}",)
    with pytest.raises(ConfigError) as direct:
        ProtocolConfig(**{field: value})
    assert direct.value.field == field
    assert field in str(direct.value)


def test_scaled_rescales_adversary_mix():
    spec = ScenarioSpec(
        name="x",
        description="d",
        peers=200,
        adversaries=_flooders(10),
    )
    small = spec.scaled(peers=20)
    assert small.peers == 20
    assert small.adversaries.total_count == 1
    assert spec.adversaries.total_count == 10  # original untouched
    # Spammers can never swallow the whole (tiny) network.
    tiny = spec.scaled(peers=2)
    assert tiny.adversaries.total_count == 1


def test_config_overrides_applied():
    spec = ScenarioSpec(
        name="x",
        description="d",
        config_overrides={"root_window": 3, "epoch_length": 5.0},
    )
    config = spec.build_config()
    assert config.root_window == 3
    assert config.epoch_length == 5.0


def test_same_seed_same_result():
    spec = scenario("burst-spammer")
    a = run_scenario(spec, peers=16, duration=30.0)
    b = run_scenario(spec, peers=16, duration=30.0)
    assert a == b  # wall-clock excluded from equality
    assert a.fingerprint() == b.fingerprint()
    assert a.wall_clock_seconds != 0.0


def test_different_seed_different_traffic():
    spec = scenario("honest-steady")
    a = run_scenario(spec, peers=16, duration=30.0, seed=1)
    b = run_scenario(spec, peers=16, duration=30.0, seed=2)
    assert a.seed != b.seed
    assert a.fingerprint() != b.fingerprint()


def test_churn_bookkeeping():
    spec = ScenarioSpec(
        name="churny",
        description="d",
        peers=12,
        duration=40.0,
        traffic=TrafficModel(active_fraction=0.25),
        churn=ChurnModel(
            join_interval=5.0, leave_interval=7.0, max_joins=3, max_leaves=2
        ),
    )
    result = run_scenario(spec)
    assert result.joined == 3
    assert result.left == 2
    assert result.peers_final == 12 + 3 - 2


def test_result_dict_and_fingerprint_exclude_wall_clock():
    result = run_scenario(scenario("honest-steady"), peers=8, duration=20.0)
    with_wall = result.to_dict()
    without = result.to_dict(include_wall_clock=False)
    assert "wall_clock_seconds" in with_wall
    assert "wall_clock_seconds" not in without
    result.wall_clock_seconds = 123.0
    assert result.fingerprint() == result.fingerprint()
    text = result.format()
    assert "fingerprint" in text and result.fingerprint() in text


class TestCli:
    def test_run_scenario_command(self, capsys):
        from repro.analysis.__main__ import main

        assert (
            main(
                [
                    "run-scenario",
                    "burst-spammer",
                    "--peers",
                    "12",
                    "--duration",
                    "20",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "scenario: burst-spammer" in out
        assert "fingerprint" in out

    def test_run_scenario_json(self, capsys):
        import json

        from repro.analysis.__main__ import main

        assert (
            main(
                [
                    "run-scenario",
                    "honest-steady",
                    "--peers",
                    "8",
                    "--duration",
                    "15",
                    "--json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "honest-steady"
        assert data["peers_started"] == 8

    def test_unknown_scenario_and_flags(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["run-scenario"]) == 1
        assert main(["run-scenario", "nope"]) == 1
        assert main(["run-scenario", "honest-steady", "--bogus", "1"]) == 1
        assert (
            main(["run-scenario", "honest-steady", "--peers", "abc"]) == 1
        )

    def test_list_scenarios(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in REQUIRED_BUILTINS:
            assert name in out
