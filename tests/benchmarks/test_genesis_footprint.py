"""Tier-1 footprint guard for the genesis member list.

The paper's regime is a huge registered membership under a small
active set, so what a dormant identity costs in host memory is a
first-class number. The measurement is the benchmark's own
(``genesis_deployment_footprint`` in ``benchmarks/bench_million_id.py``,
which also records it at 1M identities); this pins it at 50k so that a
reintroduced per-identity dict entry, list or ``Fr`` copy fails here in
seconds instead of showing up as RSS on a full-scale run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

BENCH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_million_id.py"
)

#: Measured 92.3 B/identity at 50k (one 64 B int, 8 B in the member
#: tuple the contract and the seed event share, 8 B in the leaf chunks,
#: 4 B in each of the two lookup indexes, plus the deployment's fixed
#: cost spread over 50k); ~20 % headroom. The dict-based design
#: measured 344.8.
BUDGET_BYTES_PER_IDENTITY = 110


def test_genesis_deployment_bytes_per_identity():
    spec = importlib.util.spec_from_file_location("bench_million_id", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    per_identity, _ = bench.genesis_deployment_footprint(
        50_000, depth=20, sub_depth=10
    )
    assert per_identity < BUDGET_BYTES_PER_IDENTITY, per_identity
