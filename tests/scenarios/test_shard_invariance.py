"""``shards`` outside parallel mode.

Only the windowed kernel reads a shard plan; a serial run with
``shards > 1`` builds the plain single-heap kernel, so its events,
their order and its fingerprint are the unsharded run's by
construction — ``shards`` is a pure execution knob, safe to flip on
any workload.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import WakuRlnRelayNetwork
from repro.scenarios.registry import scenario
from repro.scenarios.runner import run_scenario
from repro.sim.simulator import Simulator

PEERS = 20
DURATION = 30.0


@pytest.mark.parametrize(
    "name", ["honest-steady", "burst-spammer", "multi-topic-churn"]
)
def test_fingerprints_invariant_across_shard_counts(name):
    results = [
        run_scenario(
            scenario(name), peers=PEERS, duration=DURATION, shards=shards
        )
        for shards in (1, 2, 4)
    ]
    fingerprints = [r.fingerprint() for r in results]
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]
    assert results[0].events_processed == results[2].events_processed


def test_serial_run_with_shards_builds_the_plain_kernel():
    net = WakuRlnRelayNetwork(peer_count=12, seed=3, shards=3)
    assert type(net.simulator) is Simulator
    result = run_scenario(
        scenario("honest-steady"), peers=PEERS, duration=10.0, shards=3
    )
    assert "cross_shard_scheduled" not in result.extras
    assert "shards" not in result.to_dict()


def test_city_scale_spec_smokes_tiny():
    """The 50k built-in, shrunk to CI size, runs to completion."""
    spec = scenario("city-scale-50k")
    assert spec.shards == 8
    # 40 s: the scenario's per-peer rate is so light that the single
    # tiny-scale publisher's first message lands only after ~38 s.
    result = run_scenario(spec, peers=PEERS, duration=40.0)
    assert result.delivery_rate > 0
    assert result.sim_time == pytest.approx(40.0)


@pytest.mark.slow
def test_city_scale_50k_full_scale_completes():
    """The real thing: 50000 peers (``pytest -m slow``)."""
    result = run_scenario(scenario("city-scale-50k"))
    assert result.peers_started == 50000
    assert result.delivery_rate > 0.5
