"""Tests for epoch tracking, the nullifier map and protocol config."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.core.epoch import EpochTracker, epoch_at
from repro.core.nullifier_map import NullifierCheck, NullifierMap
from repro.crypto.keys import MembershipKeyPair
from repro.crypto.merkle import MerkleTree
from repro.rln.prover import RlnProver, rln_keys
from repro.sim.simulator import Simulator


class TestEpochMath:
    def test_epoch_at(self):
        assert epoch_at(0.0, 10.0) == 0
        assert epoch_at(9.999, 10.0) == 0
        assert epoch_at(10.0, 10.0) == 1
        assert epoch_at(105.0, 10.0) == 10

    def test_epoch_boundary_opens_the_next_epoch(self):
        assert epoch_at(70.0, 10.0) == 7
        assert epoch_at(69.999, 10.0) == 6

    @given(st.floats(min_value=0, max_value=1e9), st.floats(min_value=0.1, max_value=3600))
    def test_epoch_monotone(self, t, length):
        assert epoch_at(t + length, length) >= epoch_at(t, length) >= 0


class TestEpochTracker:
    def test_follows_simulator_clock(self):
        sim = Simulator()
        tracker = EpochTracker(sim, epoch_length=10.0)
        assert tracker.current_epoch == 0
        sim.run_for(25.0)
        assert tracker.current_epoch == 2

    def test_clock_skew(self):
        sim = Simulator()
        ahead = EpochTracker(sim, 10.0, clock_skew=15.0)
        behind = EpochTracker(sim, 10.0, clock_skew=-5.0)
        sim.run_for(10.0)
        assert ahead.current_epoch == 2
        assert behind.current_epoch == 0

    def test_threshold_window(self):
        sim = Simulator()
        tracker = EpochTracker(sim, 10.0)
        sim.run_for(100.0)  # epoch 10
        assert tracker.is_within_threshold(10, thr=2)
        assert tracker.is_within_threshold(8, thr=2)
        assert tracker.is_within_threshold(12, thr=2)
        assert not tracker.is_within_threshold(7, thr=2)
        assert not tracker.is_within_threshold(13, thr=2)


class TestProtocolConfig:
    def test_thr_derivation(self):
        config = ProtocolConfig(epoch_length=10.0, max_network_delay=20.0)
        assert config.thr == 2

    def test_thr_rounds_up(self):
        config = ProtocolConfig(epoch_length=10.0, max_network_delay=25.0)
        assert config.thr == 3

    def test_thr_floor_of_one(self):
        config = ProtocolConfig(epoch_length=60.0, max_network_delay=1.0)
        assert config.thr == 1

    def test_group_capacity(self):
        assert ProtocolConfig(merkle_depth=10).group_capacity == 1024


def make_signals(count, epoch=5, same_member=True, seed=9):
    """Produce `count` distinct-message signals, same epoch."""
    rng = random.Random(seed)
    pk, _vk = rln_keys(seed=b"nullifier-map-tests")
    tree = MerkleTree(8)
    signals = []
    if same_member:
        pair = MembershipKeyPair.generate(rng)
        index = tree.insert(pair.commitment.element)
        prover = RlnProver(keypair=pair, proving_key=pk)
        for i in range(count):
            signals.append(
                prover.create_signal(
                    f"msg-{i}".encode(), epoch, tree.proof(index)
                )
            )
    else:
        for i in range(count):
            pair = MembershipKeyPair.generate(rng)
            index = tree.insert(pair.commitment.element)
            prover = RlnProver(keypair=pair, proving_key=pk)
            signals.append(
                prover.create_signal(
                    f"msg-{i}".encode(), epoch, tree.proof(index)
                )
            )
    return signals


class TestNullifierMap:
    def test_first_signal_is_new(self):
        nmap = NullifierMap(thr=2)
        signal = make_signals(1)[0]
        check, prior = nmap.observe(signal)
        assert check is NullifierCheck.NEW
        assert prior is None
        assert nmap.entry_count == 1

    def test_same_signal_twice_is_duplicate(self):
        nmap = NullifierMap(thr=2)
        signal = make_signals(1)[0]
        nmap.observe(signal)
        check, prior = nmap.observe(signal)
        assert check is NullifierCheck.DUPLICATE
        assert prior is not None
        assert nmap.entry_count == 1

    def test_double_signal_detected(self):
        nmap = NullifierMap(thr=2)
        sig_a, sig_b = make_signals(2)
        nmap.observe(sig_a)
        check, prior = nmap.observe(sig_b)
        assert check is NullifierCheck.DOUBLE_SIGNAL
        assert prior.signal.share.x == sig_a.share.x

    def test_distinct_members_all_new(self):
        nmap = NullifierMap(thr=2)
        for signal in make_signals(4, same_member=False):
            check, _ = nmap.observe(signal)
            assert check is NullifierCheck.NEW
        assert nmap.entry_count == 4

    def test_same_member_different_epochs_all_new(self):
        nmap = NullifierMap(thr=10)
        rng = random.Random(3)
        pk, _ = rln_keys(seed=b"x")
        tree = MerkleTree(8)
        pair = MembershipKeyPair.generate(rng)
        index = tree.insert(pair.commitment.element)
        prover = RlnProver(keypair=pair, proving_key=pk)
        for epoch in range(4):
            signal = prover.create_signal(b"same", epoch, tree.proof(index))
            check, _ = nmap.observe(signal)
            assert check is NullifierCheck.NEW

    def test_prune_drops_old_epochs(self):
        nmap = NullifierMap(thr=2)
        for epoch in (1, 2, 3, 8, 9):
            rng = random.Random(epoch)
            pk, _ = rln_keys(seed=b"y")
            tree = MerkleTree(8)
            pair = MembershipKeyPair.generate(rng)
            index = tree.insert(pair.commitment.element)
            prover = RlnProver(keypair=pair, proving_key=pk)
            nmap.observe(prover.create_signal(b"m", epoch, tree.proof(index)))
        freed = nmap.prune(current_epoch=9)
        assert freed == 3  # epochs 1, 2, 3
        assert nmap.epochs() == [8, 9]

    def test_prune_keeps_window(self):
        nmap = NullifierMap(thr=3)
        signal = make_signals(1, epoch=10)[0]
        nmap.observe(signal)
        assert nmap.prune(current_epoch=13) == 0
        assert nmap.prune(current_epoch=14) == 1

    def test_storage_accounting(self):
        nmap = NullifierMap(thr=2)
        for signal in make_signals(3):
            nmap.observe(signal)
        # Only the first observation creates an entry; the other two
        # share the nullifier.
        assert nmap.storage_bytes() == 96

    def test_thr_validation(self):
        with pytest.raises(ValueError):
            NullifierMap(thr=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=5))
    def test_memory_bounded_by_window(self, thr):
        """Invariant: after pruning, at most 2*thr + 1 epochs remain."""
        nmap = NullifierMap(thr=thr)
        for epoch in range(20):
            rng = random.Random(epoch)
            pk, _ = rln_keys(seed=b"z")
            tree = MerkleTree(8)
            pair = MembershipKeyPair.generate(rng)
            index = tree.insert(pair.commitment.element)
            prover = RlnProver(keypair=pair, proving_key=pk)
            nmap.observe(prover.create_signal(b"m", epoch, tree.proof(index)))
            nmap.prune(current_epoch=epoch)
            assert len(nmap.epochs()) <= 2 * thr + 1
