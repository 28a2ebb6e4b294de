"""Tier-1 smoke run of ``benchmarks/reach.py``, the scan behind ROADMAP's
"What no run reaches" table: one built-in at 10 peers, in a fresh
interpreter, into a temporary directory (the committed
``benchmarks/results/unreached.*`` come from the whole run set)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.reporting import validate_experiment_payload

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_reach_lists_what_one_scenario_never_calls(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "reach.py"),
         "--only", "scenario:honest-steady", "--peers", "10",
         "--out", str(tmp_path)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    payload = json.loads((tmp_path / "unreached.json").read_text())
    validate_experiment_payload(payload)
    meta = payload["meta"]
    assert meta["commit"] and meta["runs"] == 1
    assert payload["note"] == "Run set: scenario:honest-steady."
    listed = {(row[0], row[1]) for row in payload["rows"]}
    # A serial relay run heartbeats and never enters the forked child loop.
    assert ("repro/gossipsub/router.py", "GossipSubRouter.heartbeat") not in listed
    assert ("repro/scenarios/parallel.py", "_child_loop") in listed
    # Without the bench in the run set nothing is bench-only, and the
    # rows add up to the total.
    assert not any(row[4] for row in payload["rows"])
    assert meta["bench_only_lines"] == 0
    assert sum(row[3] for row in payload["rows"]) == meta["unreached_lines"]
    assert 0 < meta["unreached_lines"] < meta["lines_in_defs"]
    text = (tmp_path / "unreached.txt").read_text()
    assert text.startswith(f"== {payload['title']} ==")
