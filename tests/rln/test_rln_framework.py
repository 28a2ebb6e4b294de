"""End-to-end tests of the RLN framework (no network layer yet)."""

import pytest

from repro.crypto.field import Fr
from repro.crypto.hashing import hash_bytes_to_field
from repro.crypto.keys import MembershipKeyPair
from repro.crypto.merkle import MerkleTree
from repro.errors import ProofError, SyncError
from repro.rln.circuit import RlnStatement
from repro.rln.membership import LocalGroup
from repro.rln.nullifier import external_nullifier, internal_nullifier
from repro.rln.prover import RlnProver, rln_keys
from repro.rln.signal import RlnSignal
from repro.rln.slashing import detect_double_signal
from repro.rln.verifier import RlnVerifier, SignalCheck


@pytest.fixture
def setup_keys():
    return rln_keys(seed=b"rln-tests")


@pytest.fixture
def group_with_member(setup_keys, rng):
    """A 4-member group; returns (group, keypair, leaf_index, prover, verifier)."""
    pk, vk = setup_keys
    group = LocalGroup(depth=8)
    keypair = MembershipKeyPair.generate(rng)
    others = [MembershipKeyPair.generate(rng) for _ in range(3)]
    index = group.apply_registration(keypair.commitment, 0)
    for i, other in enumerate(others):
        group.apply_registration(other.commitment, i + 1)
    prover = RlnProver(keypair=keypair, proving_key=pk)
    verifier = RlnVerifier(
        verifying_key=vk, root_predicate=group.is_acceptable_root
    )
    return group, keypair, index, prover, verifier


class TestNullifiers:
    def test_external_nullifier_is_epoch(self):
        assert external_nullifier(42) == Fr(42)

    def test_domain_separation(self):
        assert external_nullifier(42, "app-a") != external_nullifier(42, "app-b")
        assert external_nullifier(42, "app-a") != external_nullifier(42)

    def test_internal_nullifier_stable_within_epoch(self):
        sk = Fr(1234)
        e = external_nullifier(7)
        assert internal_nullifier(sk, e) == internal_nullifier(sk, e)

    def test_internal_nullifier_changes_across_epochs(self):
        sk = Fr(1234)
        assert internal_nullifier(sk, Fr(1)) != internal_nullifier(sk, Fr(2))

    def test_internal_nullifier_differs_per_member(self):
        e = Fr(5)
        assert internal_nullifier(Fr(1), e) != internal_nullifier(Fr(2), e)


class TestStatement:
    def test_honest_statement_checks(self, rng):
        tree = MerkleTree(6)
        keypair = MembershipKeyPair.generate(rng)
        index = tree.insert(keypair.commitment.element)
        statement = RlnStatement.build(
            secret=keypair.secret.element,
            ext_nullifier=Fr(9),
            x=Fr(777),
            merkle_proof=tree.proof(index),
        )
        assert statement.check_witness()

    def test_wrong_secret_fails(self, rng):
        tree = MerkleTree(6)
        keypair = MembershipKeyPair.generate(rng)
        index = tree.insert(keypair.commitment.element)
        statement = RlnStatement.build(
            secret=keypair.secret.element + Fr(1),
            ext_nullifier=Fr(9),
            x=Fr(777),
            merkle_proof=tree.proof(index),
        )
        # The leaf in the proof is the real commitment, which does not
        # match the shifted secret.
        assert not statement.check_witness()

    def test_non_member_fails(self, rng):
        tree = MerkleTree(6)
        member = MembershipKeyPair.generate(rng)
        outsider = MembershipKeyPair.generate(rng)
        index = tree.insert(member.commitment.element)
        statement = RlnStatement.build(
            secret=outsider.secret.element,
            ext_nullifier=Fr(9),
            x=Fr(777),
            merkle_proof=tree.proof(index),
        )
        assert not statement.check_witness()


class TestSignalLifecycle:
    def test_valid_signal_accepted(self, group_with_member):
        group, _, index, prover, verifier = group_with_member
        signal = prover.create_signal(
            b"hello waku", epoch=100, merkle_proof=group.merkle_proof(index)
        )
        assert verifier.check(signal) is SignalCheck.VALID

    def test_share_x_binds_message(self, group_with_member):
        group, _, index, prover, verifier = group_with_member
        signal = prover.create_signal(
            b"original", epoch=100, merkle_proof=group.merkle_proof(index)
        )
        forged = RlnSignal(
            message=b"swapped!",
            epoch=signal.epoch,
            external_nullifier=signal.external_nullifier,
            internal_nullifier=signal.internal_nullifier,
            share=signal.share,
            merkle_root=signal.merkle_root,
            proof=signal.proof,
        )
        assert verifier.check(forged) is SignalCheck.BAD_SHARE_BINDING

    def test_unknown_root_rejected(self, group_with_member, rng):
        group, _, index, prover, verifier = group_with_member
        foreign = LocalGroup(depth=8)
        keypair2 = MembershipKeyPair.generate(rng)
        idx2 = foreign.apply_registration(keypair2.commitment, 0)
        foreign_prover = RlnProver(keypair=keypair2, proving_key=prover.proving_key)
        signal = foreign_prover.create_signal(
            b"hi", epoch=100, merkle_proof=foreign.merkle_proof(idx2)
        )
        assert verifier.check(signal) is SignalCheck.UNKNOWN_ROOT

    def test_tampered_epoch_rejected(self, group_with_member):
        group, _, index, prover, verifier = group_with_member
        signal = prover.create_signal(
            b"m", epoch=100, merkle_proof=group.merkle_proof(index)
        )
        replayed = RlnSignal(
            message=signal.message,
            epoch=101,  # claims another epoch than the proved one
            external_nullifier=signal.external_nullifier,
            internal_nullifier=signal.internal_nullifier,
            share=signal.share,
            merkle_root=signal.merkle_root,
            proof=signal.proof,
        )
        assert replayed.epoch != signal.epoch
        assert verifier.check(replayed) is SignalCheck.BAD_EXTERNAL_NULLIFIER

    def test_domain_mismatch_rejected(self, group_with_member):
        group, _, index, prover, verifier = group_with_member
        signal = prover.create_signal(
            b"m", epoch=100, merkle_proof=group.merkle_proof(index), domain="x"
        )
        assert verifier.check(signal) is SignalCheck.BAD_EXTERNAL_NULLIFIER

    def test_proof_for_wrong_member_rejected_at_prover(
        self, group_with_member, rng
    ):
        group, _, _, prover, _ = group_with_member
        # Proof for someone else's leaf must be refused locally.
        other_index = 1
        with pytest.raises(ProofError):
            prover.create_signal(
                b"m", epoch=5, merkle_proof=group.merkle_proof(other_index)
            )

    def test_signal_serialization_roundtrip(self, group_with_member):
        group, _, index, prover, _ = group_with_member
        signal = prover.create_signal(
            b"roundtrip", epoch=3, merkle_proof=group.merkle_proof(index)
        )
        assert RlnSignal.from_bytes(signal.to_bytes()) == signal

    def test_overhead_is_constant(self, group_with_member):
        group, _, index, prover, _ = group_with_member
        small = prover.create_signal(
            b"a", epoch=3, merkle_proof=group.merkle_proof(index)
        )
        large = prover.create_signal(
            b"a" * 10_000, epoch=4, merkle_proof=group.merkle_proof(index)
        )
        assert small.overhead_bytes == large.overhead_bytes == 8 + 160 + 128


class TestAnonymity:
    def test_signal_carries_no_member_identifier(self, group_with_member):
        """The wire encoding must not contain sk, pk or the leaf index."""
        group, keypair, index, prover, _ = group_with_member
        signal = prover.create_signal(
            b"anon", epoch=9, merkle_proof=group.merkle_proof(index)
        )
        wire = signal.to_bytes()
        assert keypair.secret.to_bytes() not in wire
        assert keypair.commitment.to_bytes() not in wire

    def test_signals_from_two_members_structurally_identical(
        self, group_with_member, rng
    ):
        group, _, index, prover, verifier = group_with_member
        keypair_b = MembershipKeyPair.generate(rng)
        idx_b = group.apply_registration(keypair_b.commitment, group.applied_events)
        prover_b = RlnProver(keypair=keypair_b, proving_key=prover.proving_key)
        sig_a = prover.create_signal(
            b"same", epoch=9, merkle_proof=group.merkle_proof(index)
        )
        sig_b = prover_b.create_signal(
            b"same", epoch=9, merkle_proof=group.merkle_proof(idx_b)
        )
        assert len(sig_a.to_bytes()) == len(sig_b.to_bytes())
        assert verifier.check(sig_a) is SignalCheck.VALID
        assert verifier.check(sig_b) is SignalCheck.VALID


class TestDoubleSignalDetection:
    def _two_signals(self, group_with_member, msg_a=b"one", msg_b=b"two", epochs=(5, 5)):
        group, _, index, prover, _ = group_with_member
        proof = group.merkle_proof(index)
        sig_a = prover.create_signal(msg_a, epoch=epochs[0], merkle_proof=proof)
        sig_b = prover.create_signal(msg_b, epoch=epochs[1], merkle_proof=proof)
        return sig_a, sig_b

    def test_double_signal_recovers_secret(self, group_with_member):
        _, keypair, _, _, _ = group_with_member
        sig_a, sig_b = self._two_signals(group_with_member)
        evidence = detect_double_signal(sig_a, sig_b)
        assert evidence is not None
        assert evidence.recovered_secret == keypair.secret
        assert evidence.commitment == keypair.commitment

    def test_duplicate_message_is_not_spam(self, group_with_member):
        sig_a, sig_b = self._two_signals(group_with_member, b"same", b"same")
        assert detect_double_signal(sig_a, sig_b) is None

    def test_cross_epoch_is_not_spam(self, group_with_member):
        sig_a, sig_b = self._two_signals(group_with_member, epochs=(5, 6))
        assert detect_double_signal(sig_a, sig_b) is None

    def test_two_members_same_epoch_is_not_spam(self, group_with_member, rng):
        group, _, index, prover, _ = group_with_member
        keypair_b = MembershipKeyPair.generate(rng)
        idx_b = group.apply_registration(keypair_b.commitment, group.applied_events)
        prover_b = RlnProver(keypair=keypair_b, proving_key=prover.proving_key)
        sig_a = prover.create_signal(
            b"a", epoch=5, merkle_proof=group.merkle_proof(index)
        )
        sig_b = prover_b.create_signal(
            b"b", epoch=5, merkle_proof=group.merkle_proof(idx_b)
        )
        assert detect_double_signal(sig_a, sig_b) is None


class TestLocalGroup:
    def test_registration_and_lookup(self, rng):
        group = LocalGroup(depth=6)
        keypair = MembershipKeyPair.generate(rng)
        index = group.apply_registration(keypair.commitment, 0)
        assert group.index_of(keypair.commitment) == index
        assert group.contains(keypair.commitment)
        assert group.member_count == 1

    def test_out_of_order_event_rejected(self, rng):
        group = LocalGroup(depth=6)
        keypair = MembershipKeyPair.generate(rng)
        with pytest.raises(SyncError):
            group.apply_registration(keypair.commitment, 5)

    def test_removal(self, rng):
        group = LocalGroup(depth=6)
        keypair = MembershipKeyPair.generate(rng)
        index = group.apply_registration(keypair.commitment, 0)
        group.apply_removal(index, 1)
        assert not group.contains(keypair.commitment)

    def test_root_window(self, rng):
        group = LocalGroup(depth=6, root_window=3)
        roots = [group.root]
        for i in range(5):
            keypair = MembershipKeyPair.generate(rng)
            group.apply_registration(keypair.commitment, i)
            roots.append(group.root)
        assert group.is_acceptable_root(roots[-1])
        assert group.is_acceptable_root(roots[-3])
        assert not group.is_acceptable_root(roots[0])

    def test_recent_roots_ordering(self, rng):
        group = LocalGroup(depth=6, root_window=10)
        keypair = MembershipKeyPair.generate(rng)
        group.apply_registration(keypair.commitment, 0)
        recent = group.recent_roots()
        assert recent[-1] == group.root
        assert len(recent) == 2

    def test_stale_root_proof_accepted_within_window(self, group_with_member, rng):
        """A publisher proving against a slightly old root must still pass."""
        group, _, index, prover, verifier = group_with_member
        stale_proof = group.merkle_proof(index)
        newcomer = MembershipKeyPair.generate(rng)
        group.apply_registration(newcomer.commitment, group.applied_events)
        signal = prover.create_signal(b"stale", epoch=8, merkle_proof=stale_proof)
        assert verifier.check(signal) is SignalCheck.VALID


class TestR1CSIntegration:
    def test_rln_r1cs_proof_roundtrip(self, poseidon_backend, rng):
        """Full R1CS mode with the genuine Poseidon circuit."""
        group = LocalGroup(depth=4)
        keypair = MembershipKeyPair.generate(rng)
        index = group.apply_registration(keypair.commitment, 0)
        pk, vk = rln_keys(seed=b"r1cs")
        prover = RlnProver(keypair=keypair, proving_key=pk, mode="r1cs")
        verifier = RlnVerifier(
            verifying_key=vk, root_predicate=group.is_acceptable_root
        )
        signal = prover.create_signal(
            b"r1cs msg", epoch=2, merkle_proof=group.merkle_proof(index)
        )
        assert verifier.check(signal) is SignalCheck.VALID

    def test_r1cs_requires_poseidon_backend(self, rng):
        group = LocalGroup(depth=4)
        keypair = MembershipKeyPair.generate(rng)
        index = group.apply_registration(keypair.commitment, 0)
        pk, _ = rln_keys(seed=b"r1cs2")
        prover = RlnProver(keypair=keypair, proving_key=pk, mode="r1cs")
        with pytest.raises(Exception):
            prover.create_signal(
                b"m", epoch=2, merkle_proof=group.merkle_proof(index)
            )

    def test_constraint_count_matches_model(self, poseidon_backend, rng):
        from repro.crypto.zksnark.timing import rln_constraint_count

        group = LocalGroup(depth=4)
        keypair = MembershipKeyPair.generate(rng)
        index = group.apply_registration(keypair.commitment, 0)
        statement = RlnStatement.build(
            secret=keypair.secret.element,
            ext_nullifier=Fr(1),
            x=hash_bytes_to_field(b"m"),
            merkle_proof=group.merkle_proof(index),
        )
        cs = statement.synthesize()
        assert cs.num_constraints == rln_constraint_count(4)
