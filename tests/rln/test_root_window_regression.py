"""Regression tests for LocalGroup's sliding root-window acceptance.

A proof against the root that *just* slid out of the window must be
rejected; one against the oldest root still inside the window must be
accepted — the boundary the paper's group-sync race argument relies on.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.crypto.field import Fr
from repro.crypto.keys import IdentityCommitment, MembershipKeyPair
from repro.errors import MerkleError
from repro.rln.membership import (
    DEFAULT_ROOT_WINDOW,
    LocalGroup,
    MembershipStore,
)
from repro.rln.prover import RlnProver, rln_keys
from repro.rln.verifier import RlnVerifier, SignalCheck

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "crypto"))
from flat_tree_oracle import FlatReplica  # noqa: E402


def grow(group: LocalGroup, rng: random.Random, count: int):
    """Register ``count`` members; returns the roots after each event."""
    roots = []
    for _ in range(count):
        pair = MembershipKeyPair.generate(rng)
        group.apply_registration(pair.commitment, group.applied_events)
        roots.append(group.root)
    return roots


@pytest.mark.parametrize("window", [2, 4, DEFAULT_ROOT_WINDOW])
def test_window_boundary_exact(window):
    rng = random.Random(window)
    group = LocalGroup(depth=8, root_window=window)
    roots = grow(group, rng, window + 3)
    recent = group.recent_roots()
    assert len(recent) == window
    # The newest `window` roots are accepted, oldest-first.
    assert recent == roots[-window:]
    # Boundary: the oldest root still in the window is accepted...
    assert group.is_acceptable_root(roots[-window])
    # ...the one that just slid out is not.
    assert not group.is_acceptable_root(roots[-window - 1])
    # Every older root is rejected too.
    for root in roots[: -window - 1]:
        assert not group.is_acceptable_root(root)


def test_proof_against_slid_out_root_rejected_at_boundary():
    """End to end: a publisher whose replica lags by exactly the window
    is accepted; one event further behind and its proofs are dropped."""
    window = 3
    rng = random.Random(7)
    pk, vk = rln_keys(seed=b"root-window")
    router = LocalGroup(depth=8, root_window=window)
    publisher = LocalGroup(depth=8, root_window=window)

    pair = MembershipKeyPair.generate(rng)
    router.apply_registration(pair.commitment, 0)
    publisher.apply_registration(pair.commitment, 0)
    prover = RlnProver(keypair=pair, proving_key=pk)
    verifier = RlnVerifier(
        verifying_key=vk, root_predicate=router.is_acceptable_root
    )

    # The publisher proves against its current (soon-to-be-stale) root.
    stale_proof = publisher.merkle_proof(0)

    # Router applies window-1 more events: publisher root at the boundary.
    grow(router, random.Random(8), window - 1)
    boundary_signal = prover.create_signal(b"boundary", 1, stale_proof)
    assert verifier.check(boundary_signal) is SignalCheck.VALID

    # One more event: the publisher's root has just slid out.
    grow(router, random.Random(9), 1)
    stale_signal = prover.create_signal(b"too stale", 1, stale_proof)
    assert verifier.check(stale_signal) is SignalCheck.UNKNOWN_ROOT


def test_removal_events_also_slide_the_window():
    rng = random.Random(11)
    group = LocalGroup(depth=8, root_window=2)
    roots = grow(group, rng, 3)
    group.apply_removal(0, group.applied_events)
    assert not group.is_acceptable_root(roots[-2])
    assert group.is_acceptable_root(roots[-1])
    assert group.is_acceptable_root(group.root)


def test_replicated_group_accepts_identical_roots():
    """replicate_from preserves the window, not just the latest root."""
    rng = random.Random(13)
    store = MembershipStore(depth=8, root_window=4)
    source = store.local_group()
    grow(source, rng, 6)
    replica = store.local_group()
    replica.replicate_from(source)
    assert replica.recent_roots() == source.recent_roots()
    assert replica.root == source.root
    assert replica.applied_events == source.applied_events
    # The copy is a view of its own: growing one does not move the other.
    grow(replica, rng, 1)
    assert replica.root != source.root


@pytest.mark.parametrize("sub_depth", [None, 2])
def test_genesis_batch_canonicalises_like_one_by_one_replay(sub_depth):
    """A genesis batch hands already-canonical ints to the tree as they
    are; everything else is still reduced into the field. Mixed input
    must leave the same root window, leaves and lookups as replaying
    the canonical commitments one by one."""
    p = Fr.MODULUS
    rng = random.Random(17)
    pairs = [MembershipKeyPair.generate(rng) for _ in range(3)]
    batch = [
        5,
        p + 7,
        -3,
        Fr(11),
        pairs[0].commitment,
        int(pairs[1].commitment.element),
        p - 1,
        2 * p + 5,  # canonically a repeat of slot 0
        pairs[2].commitment.element,
        -p - 2,
        True,
        12,
        13,
    ]
    commitments = [
        item if isinstance(item, IdentityCommitment)
        else IdentityCommitment(Fr(item))
        for item in batch
    ]
    window = 4
    batched = MembershipStore(
        depth=6, root_window=window, sub_depth=sub_depth
    ).local_group()
    independent = FlatReplica(6, root_window=window)
    replayed = LocalGroup(depth=6, root_window=window)
    assert batched.apply_registration_batch(batch, 0) == 0
    assert independent.apply_registration_batch(batch, 0) == 0
    for event, commitment in enumerate(commitments):
        replayed.apply_registration(commitment, event)

    for group in (batched, independent):
        assert group.root == replayed.root
        assert group.recent_roots() == replayed.recent_roots()
        assert group.member_count == len(batch)
        assert group.tree.leaves() == replayed.tree.leaves()
        for commitment in commitments:
            assert group.index_of(commitment) == replayed.index_of(
                commitment
            )
        assert not group.contains(IdentityCommitment(Fr(6)))
    # Reduced into the field; the repeat resolves to the lower slot.
    leaves = [int(leaf) for leaf in batched.tree.leaves()]
    assert leaves[1] == 7 and leaves[2] == p - 3 and leaves[10] == 1
    assert batched.index_of(IdentityCommitment(Fr(5))) == 0


@pytest.mark.parametrize("sub_depth", [None, 2])
def test_zero_leaf_in_a_batch_is_refused(sub_depth):
    """A zero leaf moves no root, so inside a batch it would leave a
    root window a one-by-one replay does not produce; every tree type
    refuses it, whatever spelling of zero arrives, and applies nothing."""
    store = MembershipStore(depth=6, root_window=4, sub_depth=sub_depth)
    for group in (store.local_group(), LocalGroup(depth=6, root_window=4)):
        zeros = (0, Fr(0), Fr.MODULUS, False, IdentityCommitment(Fr(0)))
        for zero in zeros:
            with pytest.raises(MerkleError, match="zero leaf at slot 2 "):
                group.apply_registration_batch([5, 6, zero, 7, 0], 0)
        assert group.member_count == 0 and group.applied_events == 0
        assert group.apply_registration_batch([5, 6, 7], 0) == 0
        assert group.member_count == 3
    assert store.canonical().version == 3
