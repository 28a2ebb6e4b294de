"""Tier-1 footprint guard for the genesis member list.

The paper's regime is a huge registered membership under a small
active set, so what a dormant identity costs in host memory is a
first-class number. The measurement is the benchmark's own
(``genesis_deployment_footprint`` in ``benchmarks/bench_million_id.py``,
which also records it at 1M identities); this pins it at 50k, held and
at its set-up peak, so that a reintroduced per-identity dict entry,
``int`` or ``bytes`` list or ``Fr`` copy fails here in seconds instead
of showing up as RSS on a full-scale run. A built network goes further:
its tree folds the list at deploy and the list drops its buffer before
the contract sorts the lookup index, so what it holds per identity and
its deploy peak are pinned on their own.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.core.protocol import WakuRlnRelayNetwork
from repro.crypto.slot_index import SortedSlotIndex

BENCH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_million_id.py"
)

#: Held: measured 50.7 B/identity at 50k (32 B in the one packed list
#: the contract, the seed event and the tree share, 8 B in its lookup
#: index, the rest the deployment's fixed cost — tree top, journal, one
#: materialised sub-tree — spread over 50k); 46.6 with the 4 B index
#: that kept no top words. A second per-identity ``int`` or ``bytes``
#: list adds 40-70 B. The tuple-of-ints design measured 92.3, the
#: dict-based one before it 344.8.
HELD_BUDGET_BYTES_PER_IDENTITY = 55

#: Peak: measured 81.4 B/identity, set while the index is sorted (the
#: list's 32 B, ~45 B of transient sort keys — one small ``int`` and
#: one list slot per identity — and the index's 8 B); 77.2 with the
#: 4 B index. Sorting one 36-byte ``value || slot`` bytes record per
#: identity instead measured 114.2.
#: This is the order a bare contract deployment sorts in: the buffer
#: is still held. A built network sorts after dropping it (the deploy
#: peak below); only then does the sort stay under a run's live set.
PEAK_BUDGET_BYTES_PER_IDENTITY = 93

#: Deployed: measured 15.2 B/identity held by a 4-peer
#: ``WakuRlnRelayNetwork(pre_registered=50_000)`` after ``register_all``
#: (8 B of lookup index, the rest the network's fixed cost spread over
#: 50k); ~20 % headroom. A network that keeps the 32 B/identity buffer
#: after deploy measured 43.2.
DEPLOYED_BUDGET_BYTES_PER_IDENTITY = 18

#: Deploy peak: measured 55.0 B/identity traced while the same network
#: is built: the index sort's transient keys (~40 B: one small ``int``
#: and one list slot per identity), its 8 B and the 4 B top words the
#: list kept when it dropped its buffer; ~15 % headroom. The buffer
#: itself is an anonymous mapping tracemalloc does not see, so
#: ``test_the_index_sorts_after_the_buffer_is_gone`` pins that it is
#: unmapped by then. Sorting while the (traced) buffer was held, as
#: the contract did before the tree folded the list, measured 81.6.
DEPLOY_PEAK_BUDGET_BYTES_PER_IDENTITY = 63


def _bench():
    spec = importlib.util.spec_from_file_location("bench_million_id", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_deployed_network_bytes_per_identity():
    held, peak, _ = _bench().deployed_network_footprint(
        50_000, depth=20, sub_depth=10
    )
    assert held < DEPLOYED_BUDGET_BYTES_PER_IDENTITY, held
    assert peak < DEPLOY_PEAK_BUDGET_BYTES_PER_IDENTITY, peak


def test_the_index_sorts_after_the_buffer_is_gone(monkeypatch):
    sorted_with_buffer = []
    sort = SortedSlotIndex.__init__

    def spy(index, values):
        sorted_with_buffer.append(values._source.buffer is not None)
        sort(index, values)

    monkeypatch.setattr(SortedSlotIndex, "__init__", spy)
    net = WakuRlnRelayNetwork(2, seed=9, pre_registered=3000)
    assert sorted_with_buffer == [False]
    assert net.membership_store.stats()["index_bytes"] == 8 * 3000


def test_genesis_deployment_bytes_per_identity():
    held, peak, _ = _bench().genesis_deployment_footprint(
        50_000, depth=20, sub_depth=10
    )
    assert held < HELD_BUDGET_BYTES_PER_IDENTITY, held
    assert peak < PEAK_BUDGET_BYTES_PER_IDENTITY, peak
