"""Tier-1 guard on the work of one gossip heartbeat.

On the multi-topic workloads the heartbeat is the router's largest
cost, and most of it is gossip emission ranking peers by score. What a
heartbeat costs is the number of Python-level calls it makes
(``heartbeat_calls_per_heartbeat`` in ``benchmarks/bench_scenarios.py``):
ranking mesh members emission will drop anyway, or recomputing scores
whose inputs did not change, fails here in a second, where a wall-clock
difference of the same size drowns in host noise.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

BENCH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_scenarios.py"
)

#: Measured 73.32 at 40 routers / 3 topics / degree 10 / seed 5, the
#: same under ``PYTHONHASHSEED`` 0, 1 and 77; ~8 % headroom. With an
#: expiry pass over publish-without-subscribing state (two frames) it
#: measured 75.32; with a ``_decay_steps`` frame for every zero counter it measured 100.84;
#: with one ``Network.send`` per IHAVE target 125.89; ranking every
#: topic peer before dropping the mesh, with a score memo every score
#: event cleared, 466.92.
BUDGET_CALLS_PER_HEARTBEAT = 79.0


def test_python_calls_per_heartbeat():
    spec = importlib.util.spec_from_file_location("bench_scenarios", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.heartbeat_calls_per_heartbeat() < BUDGET_CALLS_PER_HEARTBEAT
