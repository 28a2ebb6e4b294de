"""Tier-1 footprint guard for the genesis member list.

The paper's regime is a huge registered membership under a small
active set, so what a dormant identity costs in host memory is a
first-class number. The measurement is the benchmark's own
(``genesis_deployment_footprint`` in ``benchmarks/bench_million_id.py``,
which also records it at 1M identities); this pins it at 50k, held and
at its set-up peak, so that a reintroduced per-identity dict entry,
``int`` or ``bytes`` list or ``Fr`` copy fails here in seconds instead
of showing up as RSS on a full-scale run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

BENCH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_million_id.py"
)

#: Held: measured 46.6 B/identity at 50k (32 B in the one packed list
#: the contract, the seed event and the tree share, 4 B in its lookup
#: index, the rest the deployment's fixed cost — tree top, journal, one
#: materialised sub-tree — spread over 50k); ~18 % headroom. A second
#: per-identity ``int`` or ``bytes`` list adds 40-70 B. The tuple-of-
#: ints design measured 92.3, the dict-based one before it 344.8.
HELD_BUDGET_BYTES_PER_IDENTITY = 55

#: Peak: measured 77.2 B/identity, set while the index is sorted (the
#: list's 32 B plus ~45 B of transient sort keys, one small ``int`` and
#: one list slot per identity); ~20 % headroom. Sorting one 36-byte
#: ``value || slot`` bytes record per identity instead measured 114.2.
#: The index transient now stays under the live set of a run, so a
#: process's RSS high-water mark is set by the run, not by set-up.
PEAK_BUDGET_BYTES_PER_IDENTITY = 93


def test_genesis_deployment_bytes_per_identity():
    spec = importlib.util.spec_from_file_location("bench_million_id", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    held, peak, _ = bench.genesis_deployment_footprint(
        50_000, depth=20, sub_depth=10
    )
    assert held < HELD_BUDGET_BYTES_PER_IDENTITY, held
    assert peak < PEAK_BUDGET_BYTES_PER_IDENTITY, peak
