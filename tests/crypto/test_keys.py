"""Tests for identity key material."""

import random

from repro.constants import KEY_SIZE_BYTES
from repro.crypto.field import Fr
from repro.crypto.hashing import hash1
from repro.crypto.keys import IdentityCommitment, IdentitySecret, MembershipKeyPair


class TestIdentitySecret:
    def test_generate_is_random(self):
        assert IdentitySecret.generate() != IdentitySecret.generate()

    def test_generate_deterministic_with_rng(self):
        a = IdentitySecret.generate(random.Random(7))
        b = IdentitySecret.generate(random.Random(7))
        assert a == b

    def test_commitment_is_hash_of_secret(self):
        secret = IdentitySecret.generate(random.Random(1))
        assert secret.commitment().element == hash1(secret.element)

    def test_serialization_roundtrip(self):
        secret = IdentitySecret.generate(random.Random(2))
        assert IdentitySecret(Fr.from_bytes(secret.to_bytes())) == secret

    def test_paper_key_size(self):
        secret = IdentitySecret.generate(random.Random(3))
        assert len(secret.to_bytes()) == KEY_SIZE_BYTES == 32


class TestIdentityCommitment:
    def test_serialization_roundtrip(self):
        commitment = IdentitySecret.generate(random.Random(4)).commitment()
        decoded = IdentityCommitment(Fr.from_bytes(commitment.to_bytes()))
        assert decoded == commitment

    def test_paper_key_size(self):
        commitment = IdentitySecret.generate(random.Random(5)).commitment()
        assert len(commitment.to_bytes()) == KEY_SIZE_BYTES == 32


class TestKeyPair:
    def test_generate_consistent(self):
        pair = MembershipKeyPair.generate(random.Random(6))
        assert pair.commitment == pair.secret.commitment()

    def test_distinct_pairs(self):
        rng = random.Random(7)
        assert MembershipKeyPair.generate(rng) != MembershipKeyPair.generate(rng)
