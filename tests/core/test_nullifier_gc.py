"""Epoch-grid nullifier GC (``NullifierMap(auto_prune=True)``)."""

from __future__ import annotations

import random

import pytest

from repro.core.nullifier_map import NullifierCheck, NullifierMap
from repro.crypto.keys import MembershipKeyPair
from repro.crypto.merkle import MerkleTree
from repro.rln.prover import RlnProver, rln_keys

THR = 2


@pytest.fixture(scope="module")
def make_signal():
    """signal(member, epoch, msg) factory over a tiny 4-member group."""
    rng = random.Random(77)
    pk, _vk = rln_keys(seed=b"nullifier-gc")
    tree = MerkleTree(6)
    provers = []
    for _ in range(4):
        pair = MembershipKeyPair.generate(rng)
        index = tree.insert(pair.commitment.element)
        provers.append((RlnProver(keypair=pair, proving_key=pk), index))

    def build(member: int, epoch: int, message: bytes = b"m"):
        prover, index = provers[member]
        return prover.create_signal(message, epoch, tree.proof(index))

    return build


class TestAutoPrune:
    def test_old_epochs_drop_when_head_advances(self, make_signal):
        nmap = NullifierMap(thr=THR, auto_prune=True)
        for epoch in range(10):
            nmap.observe(make_signal(0, epoch))
            assert nmap.epochs() == list(
                range(max(0, epoch - THR), epoch + 1)
            )
        # Everything further than thr behind the head was freed and
        # accounted for.
        assert nmap.entry_count == THR + 1
        assert nmap.auto_pruned_entries == 10 - (THR + 1)

    def test_gc_only_fires_on_new_maximum(self, make_signal):
        nmap = NullifierMap(thr=THR, auto_prune=True)
        nmap.observe(make_signal(0, 10))
        pruned_before = nmap.auto_pruned_entries
        # A straggler inside the window lands normally and does not
        # re-trigger GC (epoch 9 is not a new maximum).
        check, _ = nmap.observe(make_signal(1, 9))
        assert check is NullifierCheck.NEW
        assert nmap.auto_pruned_entries == pruned_before
        assert sorted(nmap.epochs()) == [9, 10]

    def test_double_signal_detection_survives_gc(self, make_signal):
        nmap = NullifierMap(thr=THR, auto_prune=True)
        for epoch in range(6):
            nmap.observe(make_signal(0, epoch, b"first"))
        check, prior = nmap.observe(make_signal(0, 5, b"second"))
        assert check is NullifierCheck.DOUBLE_SIGNAL
        assert prior is not None

    def test_default_map_never_auto_prunes(self, make_signal):
        nmap = NullifierMap(thr=THR)
        for epoch in range(10):
            nmap.observe(make_signal(0, epoch))
        assert len(nmap.epochs()) == 10
        assert nmap.auto_pruned_entries == 0

    def test_conservation_against_unbounded(self, make_signal):
        gc_map = NullifierMap(thr=THR, auto_prune=True)
        unbounded = NullifierMap(thr=THR)
        for epoch in range(8):
            for member in range(3):
                signal = make_signal(member, epoch)
                gc_map.observe(signal)
                unbounded.observe(signal)
        assert (
            gc_map.entry_count + gc_map.auto_pruned_entries
            == unbounded.entry_count
        )

    def test_explicit_prune_still_works(self, make_signal):
        nmap = NullifierMap(thr=THR, auto_prune=True)
        for epoch in range(5):
            nmap.observe(make_signal(0, epoch))
        freed = nmap.prune(100)
        assert freed == len(nmap.epochs()) == 0 or freed > 0
        assert nmap.entry_count == 0
        # Explicit prunes are not counted as auto-GC.
        assert nmap.auto_pruned_entries == 5 - (THR + 1)
