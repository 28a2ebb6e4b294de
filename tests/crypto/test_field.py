"""Unit and property tests for BN254 scalar-field arithmetic."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.field import Fr
from repro.errors import FieldError, SerializationError

field_elements = st.integers(min_value=0, max_value=Fr.MODULUS - 1).map(Fr)


class TestConstruction:
    def test_zero_and_one(self):
        assert Fr.zero().value == 0
        assert Fr.one().value == 1

    def test_reduction_on_construction(self):
        assert Fr(Fr.MODULUS).value == 0
        assert Fr(Fr.MODULUS + 5).value == 5

    def test_negative_input_wraps(self):
        assert Fr(-1).value == Fr.MODULUS - 1

    def test_copy_construction(self):
        a = Fr(42)
        assert Fr(a) == a

    def test_rejects_non_numeric(self):
        with pytest.raises(FieldError):
            Fr("nope")  # type: ignore[arg-type]


class TestArithmetic:
    def test_add_sub_roundtrip(self):
        a, b = Fr(123), Fr(456)
        assert (a + b) - b == a

    def test_int_operands(self):
        assert Fr(5) + 3 == Fr(8)
        assert 3 + Fr(5) == Fr(8)
        assert Fr(10) - 4 == Fr(6)
        assert Fr(4) * 3 == Fr(12)

    def test_negation(self):
        assert Fr.zero() - Fr(7) == Fr(Fr.MODULUS - 7)
        assert Fr.zero() - Fr(7) + Fr(7) == Fr.zero()

    def test_pow(self):
        assert Fr(3) ** 4 == Fr(81)
        assert Fr(3) ** 0 == Fr.one()

    def test_negative_pow_is_inverse_pow(self):
        a = Fr(17)
        assert a ** -2 == (a.inverse()) ** 2

    def test_division(self):
        a, b = Fr(123456), Fr(789)
        assert (a / b) * b == a
        assert Fr(1) / 7 == Fr(7).inverse()

    def test_inverse_of_zero_raises(self):
        with pytest.raises(FieldError):
            Fr.zero().inverse()

    def test_division_by_zero_raises(self):
        with pytest.raises(FieldError):
            Fr(3) / Fr(0)


class TestSerialization:
    def test_roundtrip(self):
        a = Fr(2**200 + 12345)
        assert Fr.from_bytes(a.to_bytes()) == a

    def test_encoding_is_32_bytes(self):
        assert len(Fr(1).to_bytes()) == 32

    def test_wrong_length_rejected(self):
        with pytest.raises(SerializationError):
            Fr.from_bytes(b"\x01" * 31)

    def test_non_canonical_rejected(self):
        data = (Fr.MODULUS).to_bytes(32, "big")
        with pytest.raises(SerializationError):
            Fr.from_bytes(data)

    def test_reduce_bytes_never_fails(self):
        assert isinstance(Fr.reduce_bytes(b"\xff" * 32), Fr)


class TestComparison:
    def test_eq_with_int(self):
        assert Fr(5) == 5
        assert Fr(5) == 5 + Fr.MODULUS

    def test_hashable(self):
        assert len({Fr(1), Fr(1), Fr(2)}) == 2

    def test_int_conversion(self):
        assert int(Fr(9)) == 9


class TestAggregates:
    """Built-in sums and products over mixed ``Fr``/``int`` terms stay
    in the field and reduce modulo its order."""

    def test_fr_sum(self):
        assert sum([Fr(1), 2, Fr(3)], Fr.zero()) == Fr(6)
        assert sum([Fr(Fr.MODULUS - 1), 2], Fr.zero()) == Fr(1)
        assert sum([], Fr.zero()) == Fr.zero()

    def test_fr_product(self):
        assert math.prod([Fr(2), 3, Fr(4)], start=Fr.one()) == Fr(24)
        assert math.prod([Fr(Fr.MODULUS - 1)] * 2, start=Fr.one()) == Fr.one()
        assert math.prod([], start=Fr.one()) == Fr.one()


class TestFieldAxioms:
    @given(field_elements, field_elements, field_elements)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(field_elements, field_elements)
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(field_elements, field_elements, field_elements)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(field_elements)
    def test_additive_inverse(self, a):
        assert a + (Fr.zero() - a) == Fr.zero()

    @given(field_elements)
    def test_multiplicative_inverse(self, a):
        if not a.is_zero():
            assert a * a.inverse() == Fr.one()

    @given(field_elements)
    def test_serialization_roundtrip(self, a):
        assert Fr.from_bytes(a.to_bytes()) == a

    @given(field_elements)
    def test_fermat_little_theorem(self, a):
        if not a.is_zero():
            assert a ** (Fr.MODULUS - 1) == Fr.one()
