"""Property-based tests for the nullifier map.

Random interleavings of observations and prunes are replayed against a
trivially correct reference model; the map must never misclassify a
signal (NEW / DUPLICATE / DOUBLE_SIGNAL) and garbage collection must
never retain an epoch outside the acceptance window.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.core.nullifier_map import NullifierCheck, NullifierMap
from repro.crypto.field import Fr
from repro.crypto.shamir import Share
from repro.crypto.zksnark.groth16 import Proof
from repro.rln.signal import RlnSignal


def make_signal(epoch: int, phi: int, x: int, y: int = 1) -> RlnSignal:
    """A structurally valid signal without the (irrelevant) proof work."""
    return RlnSignal(
        message=f"m|{epoch}|{phi}|{x}".encode(),
        epoch=epoch,
        external_nullifier=Fr(epoch + 1),
        internal_nullifier=Fr(phi + 1),
        share=Share(x=Fr(x + 1), y=Fr(y + 1)),
        merkle_root=Fr(7),
        proof=Proof(pi_a=b"\xaa" * 32, pi_b=b"\xbb" * 64, pi_c=b"\xcc" * 32),
    )


class ReferenceModel:
    """Dict-of-dicts oracle implementing the Section III semantics."""

    def __init__(self, thr: int, auto_prune: bool = False) -> None:
        self.thr = thr
        self.auto_prune = auto_prune
        self.records = {}  # epoch -> phi -> first signal object
        self.latest = -1  # highest epoch ever recorded
        self.auto_pruned = 0

    def observe(self, signal: RlnSignal) -> NullifierCheck:
        epoch, phi = signal.epoch, signal.internal_nullifier
        first = self.records.get(epoch, {}).get(phi)
        if first is None:
            if self.auto_prune and epoch > self.latest:
                self.latest = epoch
                self.auto_pruned += self.prune(epoch)
            self.records.setdefault(epoch, {})[phi] = signal
            return NullifierCheck.NEW
        if first.share.x == signal.share.x:
            return NullifierCheck.DUPLICATE
        return NullifierCheck.DOUBLE_SIGNAL

    def prune(self, current: int) -> int:
        expired = [e for e in self.records if abs(current - e) > self.thr]
        return sum(len(self.records.pop(e)) for e in expired)


@pytest.mark.parametrize("seed", range(20))
def test_random_interleavings_match_reference_model(seed):
    """Small pools force every collision class to occur often."""
    check_random_interleaving(seed, auto_prune=False)


@pytest.mark.parametrize("seed", range(20))
def test_random_interleavings_match_reference_model_under_grid_gc(seed):
    """Same walk with epoch-grid GC on: ``auto_pruned_entries`` too."""
    check_random_interleaving(seed, auto_prune=True)


def check_random_interleaving(seed: int, auto_prune: bool) -> None:
    rng = random.Random(seed)
    thr = rng.randint(1, 3)
    nmap = NullifierMap(thr=thr, auto_prune=auto_prune)
    model = ReferenceModel(thr=thr, auto_prune=auto_prune)
    current_epoch = 0
    for _ in range(300):
        action = rng.random()
        if action < 0.85:
            epoch = current_epoch + rng.randint(-thr - 2, thr + 2)
            if epoch < 0:
                continue
            signal = make_signal(
                epoch, phi=rng.randint(0, 4), x=rng.randint(0, 2)
            )
            peeked, peeked_prior = nmap.peek(signal)
            expected = model.observe(signal)
            got, prior = nmap.observe(signal)
            assert got is expected
            assert peeked is expected  # peek never disagrees with observe
            if expected is NullifierCheck.NEW:
                assert prior is None and peeked_prior is None
            else:
                # The retained record is always the FIRST signal seen —
                # the point of the map is to hold the other Shamir share
                # — and it is that very object, not a copy of its fields.
                first = model.records[signal.epoch][signal.internal_nullifier]
                assert prior is not None and prior == peeked_prior
                assert prior.signal is first
                assert prior.signal.share.x == first.share.x
                assert prior.signal.share.y == first.share.y
        else:
            current_epoch += rng.randint(0, 2)
            assert nmap.prune(current_epoch) == model.prune(current_epoch)
        assert sorted(model.records) == nmap.epochs()
        assert nmap.entry_count == sum(
            len(b) for b in model.records.values()
        )
        assert nmap.auto_pruned_entries == model.auto_pruned


@pytest.mark.parametrize("seed", range(10))
def test_gc_never_retains_epochs_outside_window(seed):
    rng = random.Random(1000 + seed)
    thr = rng.randint(1, 4)
    nmap = NullifierMap(thr=thr)
    for _ in range(200):
        nmap.observe(
            make_signal(
                epoch=rng.randint(0, 30),
                phi=rng.randint(0, 50),
                x=rng.randint(0, 5),
            )
        )
    current = rng.randint(0, 30)
    before = nmap.entry_count
    freed = nmap.prune(current)
    assert before - freed == nmap.entry_count
    for epoch in nmap.epochs():
        assert abs(current - epoch) <= thr
    # Pruning again at the same epoch is a no-op.
    assert nmap.prune(current) == 0


def test_peek_is_pure():
    nmap = NullifierMap(thr=2)
    signal = make_signal(epoch=1, phi=1, x=1)
    assert nmap.peek(signal) == (NullifierCheck.NEW, None)
    assert nmap.entry_count == 0  # peek records nothing
    nmap.observe(signal)
    assert nmap.entry_count == 1
    check, prior = nmap.peek(make_signal(epoch=1, phi=1, x=2))
    assert check is NullifierCheck.DOUBLE_SIGNAL
    assert prior is not None and prior.signal == signal
    assert nmap.entry_count == 1


def test_duplicate_never_overwrites_first_record():
    nmap = NullifierMap(thr=2)
    first = make_signal(epoch=3, phi=0, x=0, y=5)
    nmap.observe(first)
    # Same x, different y — classified by abscissa only.
    check, prior = nmap.observe(make_signal(epoch=3, phi=0, x=0, y=9))
    assert check is NullifierCheck.DUPLICATE
    assert prior is not None and prior.signal.share.y == first.share.y


def test_record_is_a_slotted_view_with_every_field_it_had():
    signal = make_signal(epoch=1, phi=1, x=1, y=4)
    nmap = NullifierMap(thr=2)
    nmap.observe(signal)
    _, prior = nmap.observe(signal)
    assert prior is not None and not hasattr(prior, "__dict__")
    assert (prior.signal.share.x, prior.signal.share.y, prior.signal) == (
        signal.share.x,
        signal.share.y,
        signal,
    )
    with pytest.raises(AttributeError):
        prior.signal = make_signal(epoch=1, phi=1, x=2)


def test_map_allocates_nothing_per_entry_beyond_its_dict_slot():
    """The bucket points at the signal the caller already holds."""
    signals = [make_signal(epoch=1, phi=i, x=0) for i in range(2500)]
    nmap = NullifierMap(thr=2)
    gc.collect()
    tracemalloc.start()
    for signal in signals:
        nmap.observe(signal)
    traced, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert nmap.entry_count == 2500
    # ~30 B of dict table per entry at this size; a record object per
    # entry would add 48 B slotted, ~76 B with a ``__dict__``.
    assert traced / 2500 < 48
