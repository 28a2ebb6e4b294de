"""Tier-1 guard on the Python work per hash of a genesis build.

The paper has every peer build the membership tree itself from the
contract's member list, and on ``registry-genesis`` that first build is
most of set-up. Its cost is how many Python frames each digest pays
for: a bulk level kernel hashes a whole tree level in one call, while a
per-pair ``hash2_int`` loop pays two frames and a fresh hash state per
digest. The count repeats exactly, where a wall-clock difference of the
same size drowns in host noise. A replica that joins after the
deployment folded the list must not pay per identity at all.
"""

from __future__ import annotations

import sys

from repro.core.config import ProtocolConfig
from repro.core.protocol import WakuRlnRelayNetwork, genesis_commitments
from repro.crypto.field import Fr
from repro.crypto.hashing import hash_call_count
from repro.rln.membership import MembershipStore

#: Measured 0.21 at 5000 identities / depth 20 / sub_depth 10 / seed 3,
#: the same under every ``PYTHONHASHSEED`` tried (the journaled
#: root-window tail is most of it). A fold that hashes pair by pair
#: through ``hash2_int`` measured 2.14.
BUDGET_CALLS_PER_HASH = 0.3


#: Measured 47 calls for a late replica's replay of a 50k-identity
#: genesis event at ``root_window`` 8: it matches the batch the tree
#: folded at deploy whole and reads only its window's roots. Matching
#: the batch value by value, as a late replica did before, costs
#: several calls per identity (hundreds of thousands here).
BUDGET_LATE_REPLAY_CALLS = 64


def _calls(fn):
    """``sys.setprofile`` "call" events inside ``fn()``."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def genesis_calls_per_hash(n=5000, depth=20, sub_depth=10, seed=3):
    """``sys.setprofile`` "call" events per hash inside one
    ``LocalGroup.apply_registration_batch`` of an ``n``-identity
    genesis list. The list's index is sorted first: that sort is the
    contract's cost, not the tree's."""
    values = genesis_commitments(n, seed=seed)
    values.index  # sorted here, before counting
    group = MembershipStore(depth=depth, sub_depth=sub_depth).local_group()
    hashes = hash_call_count()
    calls = _calls(lambda: group.apply_registration_batch(values, 0))
    return calls / (hash_call_count() - hashes)


def test_python_calls_per_genesis_hash():
    assert genesis_calls_per_hash() < BUDGET_CALLS_PER_HASH


def test_a_late_replica_skips_the_folded_genesis_batch():
    # A replica that joins after set-up (a watchtower's, a replaying
    # peer's) applies the genesis seed event the tree already folded.
    n = 50_000
    config = ProtocolConfig(merkle_depth=20, membership_sub_depth=10)
    net = WakuRlnRelayNetwork(4, config=config, seed=3, pre_registered=n)
    net.register_all()
    store = net.membership_store
    pks = net.chain.event_log[0].args["pks"]
    late = store.local_group()
    deduped = store.stats()["events_deduped"]
    calls = _calls(lambda: late.apply_registration_batch(pks, 0))
    assert calls < BUDGET_LATE_REPLAY_CALLS, calls
    skipped = store.stats()["events_deduped"] - deduped
    # Matched value by value, the same events dedup once each ...
    one_by_one = store.view()
    for value in pks:
        one_by_one.synced_insert(Fr(value))
    assert skipped == store.stats()["events_deduped"] - deduped - skipped
    assert skipped == n
    assert late.tree.version == one_by_one.version == n
    # ... and a replica that applies the batch to an empty tree's head
    # remembers the same root window.
    alone = MembershipStore(depth=20, sub_depth=10).local_group()
    alone.apply_registration_batch(pks, 0)
    assert late.recent_roots() == alone.recent_roots()
    assert late.root == one_by_one.root == alone.root
