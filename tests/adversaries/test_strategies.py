"""Unit behaviour of the built-in adversary strategies."""

from __future__ import annotations

import pytest

from repro.adversaries.base import AdversaryStrategy
from repro.adversaries.strategies import (
    AdaptiveBackoff,
    BurstFlooder,
    LowAndSlow,
    RotatingSybil,
    build_strategy,
    register_strategy,
    strategy_names,
)
from repro.errors import ScenarioError


class _StubConfig:
    epoch_length = 10.0


class _StubPeer:
    config = _StubConfig()


class _StubAgent:
    peer = _StubPeer()


AGENT = _StubAgent()


def test_registry_lists_the_four_built_ins():
    names = strategy_names()
    for expected in (
        "burst-flood",
        "rotating-sybil",
        "low-and-slow",
        "adaptive-backoff",
    ):
        assert expected in names


def test_build_strategy_unknown_name():
    with pytest.raises(ScenarioError):
        build_strategy("no-such-strategy")


def test_build_strategy_forwards_burst_only_where_supported():
    flooder = build_strategy("burst-flood", burst=7, epochs=2)
    assert isinstance(flooder, BurstFlooder)
    assert flooder.burst == 7
    # low-and-slow has no burst parameter; the default must not crash it.
    probe = build_strategy("low-and-slow", burst=7, probe_every=2)
    assert isinstance(probe, LowAndSlow)
    # ...but explicit unsupported params still fail loudly.
    with pytest.raises(ScenarioError):
        build_strategy("low-and-slow", nonsense=1)


def test_burst_flooder_stops_after_epochs_and_never_rotates():
    strat = BurstFlooder(burst=5, epochs=3)
    assert not strat.rotate_on_slash
    assert [strat.messages_for_epoch(AGENT, k) for k in range(5)] == [
        5, 5, 5, 0, 0,
    ]
    assert not strat.finished(AGENT, 2)
    assert strat.finished(AGENT, 3)


def test_rotating_sybil_always_bursts_and_rotates():
    strat = RotatingSybil(burst=4)
    assert strat.rotate_on_slash
    assert strat.messages_for_epoch(AGENT, 0) == 4
    assert strat.messages_for_epoch(AGENT, 99) == 4


def test_low_and_slow_probes_on_schedule():
    strat = LowAndSlow(probe_every=3)
    emitted = [strat.messages_for_epoch(AGENT, k) for k in range(6)]
    # Two legal epochs, then the minimal two-message violation, repeat.
    assert emitted == [1, 1, 2, 1, 1, 2]


def test_adaptive_backoff_halves_on_fast_slash_grows_on_slow():
    strat = AdaptiveBackoff(burst=8, min_burst=2)
    strat.on_slashed(AGENT, latency=5.0)  # within one epoch: fast
    assert strat.burst == 4
    strat.on_slashed(AGENT, latency=5.0)
    assert strat.burst == 2
    strat.on_slashed(AGENT, latency=5.0)  # clamped at min_burst
    assert strat.burst == 2
    strat.on_slashed(AGENT, latency=100.0)  # slow slash: push harder
    assert strat.burst == 3
    assert strat.observed_latencies == [5.0, 5.0, 5.0, 100.0]


def test_adaptive_backoff_escalates_under_impunity():
    strat = AdaptiveBackoff(burst=4, max_burst=10)
    bursts = [strat.messages_for_epoch(AGENT, k) for k in range(9)]
    assert bursts[0] == 4
    assert max(bursts) > 4  # unsanctioned violations embolden it
    assert max(bursts) <= 10


def test_register_strategy_rejects_duplicates_and_accepts_custom():
    class Custom(AdversaryStrategy):
        name = "custom-test-strategy"

        def messages_for_epoch(self, agent, epoch_index):
            return 1

    if "custom-test-strategy" not in strategy_names():
        register_strategy("custom-test-strategy", Custom)
    assert "custom-test-strategy" in strategy_names()
    with pytest.raises(ScenarioError):
        register_strategy("custom-test-strategy", Custom)
    assert isinstance(
        build_strategy("custom-test-strategy"), Custom
    )
