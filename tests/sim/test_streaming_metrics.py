"""Streaming metrics: the adversary series cap and its flag."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.scenarios.registry import scenario
from repro.scenarios.runner import run_scenario
from repro.sim.metrics import BoundedSeries


class TestBoundedSeries:
    def test_cap_and_uniform_decimation(self):
        series = BoundedSeries(max_points=8)
        for i in range(1000):
            series.append(i)
        assert 4 <= len(series) <= 8
        assert series.offered == 1000
        retained = list(series)
        # Uniform stride: consecutive retained points are equally spaced.
        gaps = {b - a for a, b in zip(retained, retained[1:])}
        assert len(gaps) == 1

    def test_short_series_keeps_everything(self):
        series = BoundedSeries(max_points=16)
        for i in range(10):
            series.append(i)
        assert list(series) == list(range(10))
        assert series[3] == 3

    def test_decimation_is_deterministic(self):
        a = BoundedSeries(max_points=8)
        b = BoundedSeries(max_points=8)
        for i in range(777):
            a.append(i)
            b.append(i)
        assert list(a) == list(b)

    def test_minimum_cap(self):
        with pytest.raises(ValueError):
            BoundedSeries(max_points=3)



@pytest.mark.parametrize(
    "name", ["rotating-sybil-economics", "million-id-city"]
)
def test_streaming_metrics_is_fingerprint_neutral_below_the_cap(name):
    # One series point per 10 s epoch: a 20 s run is far below the
    # 256-point cap, so the flag must change nothing.
    spec = scenario(name).scaled(peers=40, duration=20.0, seed=3)
    on = run_scenario(replace(spec, streaming_metrics=True))
    off = run_scenario(replace(spec, streaming_metrics=False))
    assert on.fingerprint() == off.fingerprint()
