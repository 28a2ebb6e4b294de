"""Tier-1 guard on the length of the delivery path.

Three of four kernel events on a relay are duplicate deliveries, so
what one delivery costs — a heap tuple, the port handler, the router's
``deliver`` down to the seen-cache probe — and what one fan-out costs
— one ``Network.send`` and one ``schedule_port`` call for all its
targets — is what a run costs. Wall clock on a shared host does not resolve a 10 % change;
the number of Python-level calls per processed event does, exactly
(``relay_calls_per_event`` in ``benchmarks/bench_scenarios.py``): a
closure, record or handle per delivery, or a frame or two more per
duplicate, fails here in seconds.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

BENCH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_scenarios.py"
)

#: Measured 15.97 at 30 peers / 40 messages / seed 11, the same under
#: ``PYTHONHASHSEED`` 0, 1 and 77; ~9 % headroom. With an expiry pass
#: over publish-without-subscribing state in every heartbeat (two
#: frames) it measured 16.14; with a ``_decay_steps`` frame for every zero score counter it measured
#: 16.40; with a cancellable ``EventHandle`` built per closure event
#: 16.54; with the validator and verifier counting through a
#: ``MetricsRegistry.increment`` frame 16.89; with one ``Network.send``
#: (six frames) per target and ``deliver`` / ``_process`` / ``add_peer``
#: / validator lambdas as separate frames, 23.11; with a closure +
#: record + handle per delivery and the duplicate dropped three frames
#: deeper, 33.75.
BUDGET_CALLS_PER_EVENT = 17.4


def test_python_calls_per_processed_event():
    spec = importlib.util.spec_from_file_location("bench_scenarios", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.relay_calls_per_event() < BUDGET_CALLS_PER_EVENT
