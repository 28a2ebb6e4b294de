"""Tests for the routing-peer validation pipeline."""

import pytest

from repro.core.epoch import EpochTracker
from repro.core.nullifier_map import NullifierMap
from repro.core.validator import RlnMessageValidator, ValidationOutcome
from repro.crypto.keys import MembershipKeyPair
from repro.rln.membership import LocalGroup
from repro.rln.prover import RlnProver, rln_keys
from repro.rln.verifier import RlnVerifier
from repro.sim.simulator import Simulator


@pytest.fixture
def stack(rng):
    """A validator plus a registered member's prover on a live clock."""
    sim = Simulator()
    pk, vk = rln_keys(seed=b"validator-tests")
    group = LocalGroup(depth=8)
    pair = MembershipKeyPair.generate(rng)
    index = group.apply_registration(pair.commitment, 0)
    prover = RlnProver(keypair=pair, proving_key=pk)
    tracker = EpochTracker(sim, epoch_length=10.0)
    validator = RlnMessageValidator(
        verifier=RlnVerifier(vk, group.is_acceptable_root),
        epoch_tracker=tracker,
        nullifier_map=NullifierMap(thr=2),
    )
    return sim, group, index, prover, validator


def signal_at(prover, group, index, message, epoch):
    return prover.create_signal(message, epoch, group.merkle_proof(index))


class TestPipeline:
    def test_valid_signal_relays(self, stack):
        sim, group, index, prover, validator = stack
        signal = signal_at(prover, group, index, b"ok", 0)
        report = validator.validate(signal)
        assert report.outcome is ValidationOutcome.RELAY

    def test_validate_bytes_roundtrip(self, stack):
        sim, group, index, prover, validator = stack
        signal = signal_at(prover, group, index, b"ok", 0)
        report = validator.validate_bytes(signal.to_bytes())
        assert report.outcome is ValidationOutcome.RELAY

    def test_missing_proof_rejected(self, stack):
        _, _, _, _, validator = stack
        report = validator.validate_bytes(None)
        assert report.outcome is ValidationOutcome.REJECT_MALFORMED

    def test_garbage_bytes_rejected(self, stack):
        _, _, _, _, validator = stack
        report = validator.validate_bytes(b"not a signal")
        assert report.outcome is ValidationOutcome.REJECT_MALFORMED

    def test_epoch_too_old_rejected(self, stack):
        sim, group, index, prover, validator = stack
        sim.run_for(100.0)  # local epoch 10, thr 2
        signal = signal_at(prover, group, index, b"stale", 5)
        report = validator.validate(signal)
        assert report.outcome is ValidationOutcome.REJECT_BAD_EPOCH

    def test_epoch_from_future_rejected(self, stack):
        sim, group, index, prover, validator = stack
        signal = signal_at(prover, group, index, b"early", 9)
        report = validator.validate(signal)
        assert report.outcome is ValidationOutcome.REJECT_BAD_EPOCH

    def test_epoch_within_window_accepted(self, stack):
        sim, group, index, prover, validator = stack
        sim.run_for(100.0)  # epoch 10
        for epoch in (8, 9, 10, 11, 12):
            signal = signal_at(
                prover, group, index, f"w{epoch}".encode(), epoch
            )
            report = validator.validate(signal)
            assert report.outcome is ValidationOutcome.RELAY, epoch

    def test_new_member_cannot_spam_past_epochs(self, stack):
        """Section III: epoch validation prevents messaging for all past
        epochs — only the Thr window is accepted."""
        sim, group, index, prover, validator = stack
        sim.run_for(200.0)  # epoch 20
        accepted = 0
        for epoch in range(21):
            signal = signal_at(
                prover, group, index, f"p{epoch}".encode(), epoch
            )
            if validator.validate(signal).outcome is ValidationOutcome.RELAY:
                accepted += 1
        assert accepted == 3  # epochs 18, 19, 20 only

    def test_duplicate_ignored(self, stack):
        sim, group, index, prover, validator = stack
        signal = signal_at(prover, group, index, b"dup", 0)
        validator.validate(signal)
        report = validator.validate(signal)
        assert report.outcome is ValidationOutcome.IGNORE_DUPLICATE

    def test_double_signal_produces_evidence(self, stack, rng):
        sim, group, index, prover, validator = stack
        hits = []
        validator.on_spam(hits.append)
        validator.validate(signal_at(prover, group, index, b"one", 0))
        report = validator.validate(signal_at(prover, group, index, b"two", 0))
        assert report.outcome is ValidationOutcome.DROP_SPAM
        assert report.evidence is not None
        assert report.evidence.recovered_secret == prover.keypair.secret
        assert hits == [report.evidence]

    def test_outsider_proof_rejected(self, stack, rng):
        sim, group, index, prover, validator = stack
        foreign_group = LocalGroup(depth=8)
        outsider = MembershipKeyPair.generate(rng)
        out_index = foreign_group.apply_registration(outsider.commitment, 0)
        out_prover = RlnProver(
            keypair=outsider, proving_key=prover.proving_key
        )
        signal = out_prover.create_signal(
            b"intruder", 0, foreign_group.merkle_proof(out_index)
        )
        report = validator.validate(signal)
        assert report.outcome is ValidationOutcome.REJECT_INVALID_PROOF

    def test_housekeeping_prunes(self, stack):
        sim, group, index, prover, validator = stack
        validator.validate(signal_at(prover, group, index, b"x", 0))
        sim.run_for(100.0)
        assert validator.housekeeping() == 1
        assert validator.nullifier_map.entry_count == 0

    def test_metrics_recorded(self, stack):
        sim, group, index, prover, validator = stack
        validator.validate(signal_at(prover, group, index, b"m", 0))
        assert validator.metrics.counter("validator.relayed") == 1


class TestDuplicateFastPath:
    """The duplicate short-circuit must only fire for exact copies."""

    def test_exact_duplicate_ignored_without_reverification(self, stack):
        sim, group, index, prover, validator = stack
        signal = signal_at(prover, group, index, b"dup", 0)
        assert validator.validate(signal).outcome is ValidationOutcome.RELAY
        report = validator.validate(signal)
        assert report.outcome is ValidationOutcome.IGNORE_DUPLICATE
        assert validator.metrics.counter("validator.duplicate_fast_path") == 1

    def test_tampered_copy_still_rejected(self, stack):
        """Same (epoch, phi, share.x) but corrupted share.y: must REJECT
        (P4 penalty), never be waved through as a duplicate."""
        import dataclasses

        from repro.crypto.field import Fr

        sim, group, index, prover, validator = stack
        signal = signal_at(prover, group, index, b"tamper", 0)
        assert validator.validate(signal).outcome is ValidationOutcome.RELAY
        tampered = dataclasses.replace(
            signal,
            share=dataclasses.replace(signal.share, y=signal.share.y + Fr.one()),
        )
        report = validator.validate(tampered)
        assert report.outcome is ValidationOutcome.REJECT_INVALID_PROOF
        assert validator.metrics.counter("validator.duplicate_fast_path") == 0
