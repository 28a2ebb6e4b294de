"""Tier-1 guard on the Python work per hash of a genesis build.

The paper has every peer build the membership tree itself from the
contract's member list, and on ``registry-genesis`` that first build is
most of set-up. Its cost is how many Python frames each digest pays
for: a bulk level kernel hashes a whole tree level in one call, while a
per-pair ``hash2_int`` loop pays two frames and a fresh hash state per
digest. The count repeats exactly, where a wall-clock difference of the
same size drowns in host noise.
"""

from __future__ import annotations

import sys

from repro.core.protocol import genesis_commitments
from repro.crypto.hashing import hash_call_count
from repro.rln.membership import MembershipStore

#: Measured 0.21 at 5000 identities / depth 20 / sub_depth 10 / seed 3,
#: the same under every ``PYTHONHASHSEED`` tried (the journaled
#: root-window tail is most of it). A fold that hashes pair by pair
#: through ``hash2_int`` measured 2.14.
BUDGET_CALLS_PER_HASH = 0.3


def genesis_calls_per_hash(n=5000, depth=20, sub_depth=10, seed=3):
    """``sys.setprofile`` "call" events per hash inside one
    ``LocalGroup.apply_registration_batch`` of an ``n``-identity
    genesis list. The list's index is sorted first: that sort is the
    contract's cost, not the tree's."""
    values = genesis_commitments(n, seed=seed)
    values.index  # sorted here, before counting
    group = MembershipStore(depth=depth, sub_depth=sub_depth).local_group()
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    hashes = hash_call_count()
    sys.setprofile(count)
    try:
        group.apply_registration_batch(values, event_index=0)
    finally:
        sys.setprofile(None)
    return calls / (hash_call_count() - hashes)


def test_python_calls_per_genesis_hash():
    assert genesis_calls_per_hash() < BUDGET_CALLS_PER_HASH
