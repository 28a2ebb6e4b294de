"""Tier-1 footprint guards for the relay path.

The simulator hands every peer the same immutable wire payload, so a
decoded ``WakuMessage`` is per-message data and must exist once per
process, whatever the peer count (``decode_envelope`` in
``waku/message.py``). The measurement is the benchmark's own
(``relay_envelope_footprint`` in ``benchmarks/bench_scenarios.py``,
which also records it at 200 / 400 peers); this pins it at 40 and 80
peers under the same 60 messages, so that a reintroduced per-peer
decode cache fails here in seconds instead of showing up as RSS on
``relay-steady``.

The second guard is on what *does* follow peers x messages: router
state per (peer, message), measured as a slope between two message
counts (``relay_marginal_bytes``) so fixed per-peer state cancels.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_scenarios.py"
)

#: Measured 68.6 / 67.3 KB at 40 / 80 peers for 60 messages (per
#: message: ~400 B of wire bytes, ~400 B of payload + proof slices,
#: ~190 B of instance and topic string, ~140 B of memo slot); ~15 %
#: headroom. One 512-entry cache per peer measured 1618 KB at 40 peers
#: and 3209 KB at 80.
BUDGET_ENVELOPE_BYTES = 79_000
#: Live instances beyond the distinct messages (none measured).
SLACK_INSTANCES = 8
#: Measured 141.8 B at 20 peers between 100 and 160 messages (87.5 at
#: 40, 57.3 at 80: ~29 B of router state per (peer, message) plus
#: ~2.3 KB per message held once per process by the shared verification
#: cache, spread over the peers); ~15 % headroom. With the seen-cache
#: in an ordered dict (a linked node next to every slot) it measured
#: 174.4 (119.9, 89.8), ~62 B per (peer, message); with an
#: ``(expiry, id)`` heap entry next to every slot, 236.2 (177.7, 147.5).
BUDGET_MARGINAL_BYTES = 163


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_scenarios", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("peers", [40, 80])
def test_envelopes_do_not_follow_the_peer_count(bench, peers):
    run = bench.relay_envelope_footprint(peers, messages=60)
    assert run["live_envelopes"] <= 60 + SLACK_INSTANCES, run
    assert run["envelope_bytes"] < BUDGET_ENVELOPE_BYTES, run


def test_router_state_per_peer_and_message(bench):
    assert bench.relay_marginal_bytes(20) < BUDGET_MARGINAL_BYTES
