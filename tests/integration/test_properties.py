"""Cross-module property-based tests (hypothesis)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.field import Fr
from repro.crypto.keys import MembershipKeyPair
from repro.crypto.merkle import MerkleTree
from repro.errors import SerializationError
from repro.rln.membership import MembershipStore
from repro.rln.prover import RlnProver, rln_keys
from repro.rln.signal import RlnSignal
from repro.rln.slashing import detect_double_signal
from repro.waku.message import WakuMessage

payloads = st.binary(min_size=0, max_size=200)
topics = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz/0123456789-", min_size=1, max_size=40
)


class TestWakuMessageProperties:
    @given(payloads, topics, st.one_of(st.none(), st.binary(max_size=64)))
    def test_roundtrip(self, payload, topic, proof):
        message = WakuMessage(
            payload=payload, content_topic=topic, rate_limit_proof=proof
        )
        assert WakuMessage.from_bytes(message.to_bytes()) == message

    @given(payloads)
    def test_corrupted_length_prefix_rejected_or_differs(self, payload):
        message = WakuMessage(payload=payload)
        data = bytearray(message.to_bytes())
        data[1] ^= 0xFF  # corrupt the topic length
        try:
            decoded = WakuMessage.from_bytes(bytes(data))
        except SerializationError:
            return
        assert decoded != message


@pytest.fixture(scope="module")
def signal_factory():
    rng = random.Random(55)
    pk, _vk = rln_keys(seed=b"props")
    tree = MerkleTree(8)
    pair = MembershipKeyPair.generate(rng)
    index = tree.insert(pair.commitment.element)
    prover = RlnProver(keypair=pair, proving_key=pk)

    def build(message: bytes, epoch: int) -> RlnSignal:
        return prover.create_signal(message, epoch, tree.proof(index))

    build.keypair = pair
    return build


class TestSignalProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payloads, st.integers(min_value=0, max_value=2**40))
    def test_serialization_roundtrip(self, signal_factory, payload, epoch):
        signal = signal_factory(payload, epoch)
        assert RlnSignal.from_bytes(signal.to_bytes()) == signal

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payloads, payloads, st.integers(min_value=0, max_value=2**30))
    def test_double_signal_always_recovers_secret(
        self, signal_factory, msg_a, msg_b, epoch
    ):
        """For ANY two distinct messages in one epoch, slashing works."""
        sig_a = signal_factory(msg_a, epoch)
        sig_b = signal_factory(msg_b, epoch)
        evidence = detect_double_signal(sig_a, sig_b)
        if msg_a == msg_b:
            assert evidence is None  # duplicates never slash
        else:
            assert evidence is not None
            assert evidence.recovered_secret == signal_factory.keypair.secret

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payloads, st.integers(min_value=0, max_value=2**30))
    def test_single_share_is_not_the_secret(
        self, signal_factory, payload, epoch
    ):
        """One message must not leak sk (perfect secrecy at one point)."""
        signal = signal_factory(payload, epoch)
        assert signal.share.y != signal_factory.keypair.secret.element
        assert signal.share.x != signal_factory.keypair.secret.element

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(min_value=0, max_value=2**30))
    def test_nullifier_unlinkable_across_epochs(self, signal_factory, epoch):
        """The same member's nullifiers in different epochs differ —
        receivers cannot link its traffic across epochs."""
        sig_a = signal_factory(b"m", epoch)
        sig_b = signal_factory(b"m", epoch + 1)
        assert sig_a.internal_nullifier != sig_b.internal_nullifier


class TestTreeInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=1, max_value=2**64), min_size=1, max_size=20
        )
    )
    def test_every_member_proof_verifies_against_final_root(self, values):
        tree = MerkleTree(6)
        for v in values[: tree.capacity]:
            tree.insert(Fr(v))
        for i in range(tree.leaf_count):
            assert tree.proof(i).verify(tree.root)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=1, max_value=2**64), min_size=2, max_size=16
        ),
        st.data(),
    )
    def test_deletion_invalidates_only_that_member(self, values, data):
        tree = MembershipStore(depth=6).view()
        for v in values[: tree.capacity]:
            tree.synced_insert(Fr(v))
        victim = data.draw(
            st.integers(min_value=0, max_value=tree.leaf_count - 1)
        )
        proofs = {i: tree.proof(i) for i in range(tree.leaf_count)}
        tree.synced_update(victim, Fr.zero())
        # Old proofs are stale (root changed) — but fresh proofs of the
        # survivors still verify, and the victim's leaf is zero.
        for i in range(tree.leaf_count):
            fresh = tree.proof(i)
            assert fresh.verify(tree.root)
            if i == victim:
                assert fresh.leaf == Fr.zero()
            else:
                assert fresh.leaf == proofs[i].leaf
