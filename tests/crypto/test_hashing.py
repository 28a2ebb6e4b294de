"""Tests for hash-backend selection and byte hashing."""

import pytest
from test_hash_vectors import blake2b_field_hash

from repro.crypto.field import Fr
from repro.crypto.hashing import (
    available_backends,
    get_hash_backend,
    hash1,
    hash2,
    hash_bytes_to_field,
    set_hash_backend,
)
from repro.crypto.poseidon import poseidon_hash1, poseidon_hash2
from repro.errors import FieldError


class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert set(available_backends()) == {"blake2b", "poseidon"}

    def test_default_backend(self):
        assert get_hash_backend() == "blake2b"

    def test_switch_and_restore(self):
        set_hash_backend("poseidon")
        assert get_hash_backend() == "poseidon"
        set_hash_backend("blake2b")
        assert get_hash_backend() == "blake2b"

    def test_unknown_backend_rejected(self):
        with pytest.raises(FieldError):
            set_hash_backend("md5")

    def test_poseidon_backend_dispatches_to_poseidon(self, poseidon_backend):
        assert hash1(Fr(7)) == poseidon_hash1(Fr(7))
        assert hash2(Fr(7), Fr(8)) == poseidon_hash2(Fr(7), Fr(8))

    def test_backends_disagree(self):
        blake = blake2b_field_hash([Fr(7)])
        assert blake != poseidon_hash1(Fr(7))


class TestIntNativeFastPath:
    def test_int_path_matches_fr_path_blake2b(self):
        from repro.crypto.hashing import hash1_int, hash2_int

        assert hash1(Fr(7)) == Fr(hash1_int(7))
        assert hash2(Fr(7), Fr(8)) == Fr(hash2_int(7, 8))

    def test_int_path_matches_fr_path_poseidon(self, poseidon_backend):
        from repro.crypto.hashing import hash1_int, hash2_int

        assert hash1(Fr(7)) == Fr(hash1_int(7))
        assert hash2(Fr(7), Fr(8)) == Fr(hash2_int(7, 8))

    def test_int_path_follows_backend_switch(self):
        from repro.crypto.hashing import hash2_int

        blake = hash2_int(1, 2)
        set_hash_backend("poseidon")
        assert hash2_int(1, 2) != blake
        set_hash_backend("blake2b")
        assert hash2_int(1, 2) == blake

    def test_hash_call_counter_is_monotonic(self):
        from repro.crypto.hashing import hash2_int, hash_call_count

        before = hash_call_count()
        hash2_int(1, 2)
        hash1(Fr(3))
        assert hash_call_count() == before + 2


class TestBlake2bFieldHash:
    def test_deterministic(self):
        assert blake2b_field_hash([Fr(1), Fr(2)]) == blake2b_field_hash(
            [Fr(1), Fr(2)]
        )

    def test_arity_separation(self):
        assert blake2b_field_hash([Fr(1)]) != blake2b_field_hash([Fr(1), Fr(0)])

    def test_bad_arity_rejected(self):
        with pytest.raises(FieldError):
            blake2b_field_hash([Fr(1), Fr(2), Fr(3)])


class TestBytesToField:
    def test_deterministic(self):
        assert hash_bytes_to_field(b"hello") == hash_bytes_to_field(b"hello")

    def test_content_sensitivity(self):
        assert hash_bytes_to_field(b"hello") != hash_bytes_to_field(b"hellp")

    def test_domain_separation(self):
        assert hash_bytes_to_field(b"x", "a") != hash_bytes_to_field(b"x", "b")

    def test_empty_message_ok(self):
        assert isinstance(hash_bytes_to_field(b""), Fr)
