"""Tests for the `python -m repro.analysis` experiment runner."""

import re

import pytest

from repro.analysis.__main__ import EXPERIMENTS, main
from repro.scenarios.parallel import barrier_times
from repro.scenarios.registry import scenario, scenario_names
from repro.sim.latency import DEFAULT_LATENCY


#: The barrier window: the runner's latency model's minimum latency.
WINDOW = DEFAULT_LATENCY.min_latency()


class TestCli:
    def test_explain_parallel_prints_the_barriers_the_drivers_run(
        self, capsys
    ):
        argv = [
            "run-scenario", "rotating-sybil-economics",
            "--duration", "6", "--workers", "2", "--explain-parallel",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        barriers = len(list(barrier_times(6.0, WINDOW)))
        assert f"({barriers} barriers over 6.0s)" in out

    @pytest.mark.parametrize("name", scenario_names())
    def test_explain_parallel_plan_of_every_builtin(self, name, capsys):
        """At its own size and duration, each built-in's dry-run plan
        names the drivers' barrier count and hands every peer to
        exactly one worker."""
        spec = scenario(name)
        argv = [
            "run-scenario", name, "--workers", "2", "--explain-parallel",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        barriers = len(list(barrier_times(spec.duration, WINDOW)))
        assert f"({barriers} barriers over {spec.duration}s)" in out
        owned = [
            int(count)
            for count in re.findall(r"worker \d+\s+.*?: (\d+) peers", out)
        ]
        assert len(owned) == min(2, spec.shards)
        assert sum(owned) == spec.peers

    def test_every_paper_experiment_registered(self):
        for key in ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"):
            assert key in EXPERIMENTS

    def test_ablations_and_scaling_registered(self):
        for key in ("a1", "a2", "a3", "a4", "scale"):
            assert key in EXPERIMENTS

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["e99"]) == 1
        assert "unknown experiments" in capsys.readouterr().out

    def test_single_experiment_runs(self, capsys):
        assert main(["ref"]) == 0
        out = capsys.readouterr().out
        assert "Paper reference values" in out
        assert "proof generation" in out

    def test_fast_experiment_prints_table(self, capsys):
        assert main(["a1"]) == 0
        out = capsys.readouterr().out
        assert "epoch T (s)" in out
        assert "thr" in out

    def test_case_insensitive_selection(self, capsys):
        assert main(["REF"]) == 0
