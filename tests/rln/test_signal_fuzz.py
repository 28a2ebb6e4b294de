"""Fuzz-style round-trip and double-signal recovery tests for RlnSignal.

Random secrets, epochs and messages; the wire codec must be lossless and
``detect_double_signal`` must recover the *exact* secret from any two
distinct shares of one epoch — and never from one share alone. Any byte
string either parses into a signal that re-encodes to the same bytes or
raises ``SerializationError``, never another exception.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import KEY_SIZE_BYTES, PROOF_SIZE_BYTES
from repro.crypto.field import Fr
from repro.crypto.keys import MembershipKeyPair
from repro.crypto.merkle import MerkleTree
from repro.errors import SerializationError
from repro.rln.prover import RlnProver, rln_keys
from repro.rln.signal import RlnSignal
from repro.rln.slashing import detect_double_signal


@pytest.fixture(scope="module")
def setup():
    pk, vk = rln_keys(seed=b"signal-fuzz")
    rng = random.Random(0xF055)
    tree = MerkleTree(10)
    members = []
    for _ in range(8):
        pair = MembershipKeyPair.generate(rng)
        index = tree.insert(pair.commitment.element)
        members.append((RlnProver(keypair=pair, proving_key=pk), pair, index))
    return tree, members, rng


def random_payload(rng: random.Random) -> bytes:
    return bytes(rng.randrange(256) for _ in range(rng.randint(0, 200)))


def test_roundtrip_random_signals(setup):
    tree, members, rng = setup
    for i in range(30):
        prover, _pair, index = members[i % len(members)]
        signal = prover.create_signal(
            random_payload(rng),
            epoch=rng.randint(0, 2**40),
            merkle_proof=tree.proof(index),
            rng=rng,
        )
        decoded = RlnSignal.from_bytes(signal.to_bytes())
        assert decoded == signal
        assert decoded.public_inputs() == signal.public_inputs()


def test_mutated_lengths_always_rejected(setup):
    tree, members, rng = setup
    prover, _pair, index = members[0]
    raw = prover.create_signal(
        b"mutate me", epoch=5, merkle_proof=tree.proof(index), rng=rng
    ).to_bytes()
    for _ in range(30):
        cut = rng.randint(0, len(raw) - 1)
        with pytest.raises(SerializationError):
            RlnSignal.from_bytes(raw[:cut])
    with pytest.raises(SerializationError):
        RlnSignal.from_bytes(raw + b"\x00")


def test_double_signal_recovers_exact_secret(setup):
    tree, members, rng = setup
    for i in range(20):
        prover, pair, index = members[i % len(members)]
        epoch = rng.randint(0, 2**30)
        proof = tree.proof(index)
        a = prover.create_signal(random_payload(rng), epoch, proof, rng=rng)
        b = prover.create_signal(random_payload(rng), epoch, proof, rng=rng)
        if a.share.x == b.share.x:  # same message hash: not a violation
            continue
        evidence = detect_double_signal(a, b)
        assert evidence is not None
        assert evidence.recovered_secret == pair.secret
        assert evidence.commitment == pair.commitment
        assert evidence.epoch == epoch


def test_one_share_never_recovers(setup):
    """One message = one Shamir point = perfect secrecy."""
    tree, members, rng = setup
    prover, pair, index = members[1]
    proof = tree.proof(index)
    signal = prover.create_signal(b"only one", epoch=9, merkle_proof=proof, rng=rng)
    # The very same signal seen twice (gossip duplicate) is no evidence.
    assert detect_double_signal(signal, signal) is None
    # Identical message re-published: same share, still no evidence.
    again = prover.create_signal(b"only one", epoch=9, merkle_proof=proof, rng=rng)
    assert detect_double_signal(signal, again) is None


def test_cross_epoch_and_cross_member_pairs_rejected(setup):
    tree, members, rng = setup
    prover_a, _pa, index_a = members[2]
    prover_b, _pb, index_b = members[3]
    proof_a, proof_b = tree.proof(index_a), tree.proof(index_b)
    for _ in range(10):
        e1 = rng.randint(0, 1000)
        e2 = e1 + rng.randint(1, 5)
        # Same member, different epochs: different external nullifier.
        a = prover_a.create_signal(b"x", e1, proof_a, rng=rng)
        b = prover_a.create_signal(b"y", e2, proof_a, rng=rng)
        assert detect_double_signal(a, b) is None
        # Different members, same epoch: different internal nullifier.
        c = prover_b.create_signal(b"z", e1, proof_b, rng=rng)
        assert detect_double_signal(a, c) is None


#: Field-element slots of the wire format: e, phi, x, y, root.
FIELD_SLOTS = 5
#: Bytes after the length-prefixed message: epoch, field slots, proof.
FIXED_TAIL = 8 + FIELD_SLOTS * KEY_SIZE_BYTES + PROOF_SIZE_BYTES

#: A 32 B slot value: canonical, or at/above the modulus.
slot_values = st.one_of(
    st.integers(0, Fr.MODULUS - 1),
    st.integers(Fr.MODULUS, 2 ** (8 * KEY_SIZE_BYTES) - 1),
)


def parse_or_reject(data: bytes):
    """The parsed signal (checked to re-encode to ``data``), or None
    when the parser raised its typed error."""
    try:
        signal = RlnSignal.from_bytes(data)
    except SerializationError:
        return None
    assert signal.to_bytes() == data
    assert len(data) == 4 + len(signal.message) + signal.overhead_bytes
    return signal


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=2 * FIXED_TAIL))
def test_arbitrary_bytes_parse_or_raise_typed_error(data):
    parse_or_reject(data)


@settings(max_examples=300, deadline=None)
@given(
    message=st.binary(max_size=64),
    epoch=st.binary(min_size=8, max_size=8),
    slots=st.lists(slot_values, min_size=FIELD_SLOTS, max_size=FIELD_SLOTS),
    proof=st.binary(min_size=PROOF_SIZE_BYTES, max_size=PROOF_SIZE_BYTES),
)
def test_valid_length_parses_iff_every_slot_is_canonical(
    message, epoch, slots, proof
):
    data = (
        len(message).to_bytes(4, "big")
        + message
        + epoch
        + b"".join(v.to_bytes(KEY_SIZE_BYTES, "big") for v in slots)
        + proof
    )
    assert len(data) == 4 + len(message) + FIXED_TAIL
    signal = parse_or_reject(data)
    assert (signal is not None) == all(v < Fr.MODULUS for v in slots)
