"""Tier-1 footprint guard for the state each live peer holds.

The paper's regime is a small live set of resource-limited relays over
a huge registered membership, so host memory per live peer is a cost
that matters: at the ``registry-genesis`` reference workload's 1000
peers it sets the run's RSS high-water mark. The measurement is the
benchmark's own (``live_peer_marginal_bytes`` in
``benchmarks/bench_million_id.py``, which records it by file at
500 -> 1000 peers over 500k identities); this pins it at smoke size,
as a slope between two peer counts so fixed costs cancel, so that a
reintroduced per-peer closure, ordered dict or unpruned journal fails
here in seconds instead of showing up as RSS on a full-scale run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

BENCH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_million_id.py"
)

#: Measured 17 918 B per live peer between 40 and 120 peers over 2000
#: dormant identities (the smoke form of the registry-genesis shape),
#: the same under PYTHONHASHSEED 0 and 3; ~14 % headroom. It measured
#: 19 985 with a one-key dict per peer's topic scores, a score-memo
#: dict per router, a closure per delivery recorder, a bound method per
#: pending periodic tick, a tuple around every message-cache ID list, a
#: set of joined topics per relay and unslotted validators, verifiers
#: and nullifier maps; 21 625 when this budget was first lowered;
#: 24 112 with a dict per message-cache window, a root-window dict per
#: replica, two validator lambdas per topic, empty suspect and
#: dirty-topic sets and unslotted accounts and receipts; 30 034 with a
#: closure pair per periodic task, an ordered dict of recent roots,
#: every registration's undo journal kept for the run and per-router
#: score-param copies and dict-backed score stats.
BUDGET_BYTES_PER_LIVE_PEER = 20_400


def _bench():
    spec = importlib.util.spec_from_file_location("bench_million_id", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_live_peer_bytes_at_run_end():
    per_peer, by_file = _bench().live_peer_marginal_bytes(
        40, 120, pre_registered=2000, seed=3, quick=True
    )
    assert per_peer < BUDGET_BYTES_PER_LIVE_PEER, sorted(
        by_file.items(), key=lambda item: -item[1]
    )[:8]
