"""Prime-field arithmetic over the BN254 scalar field.

Every algebraic object in the RLN construction — Poseidon digests, Merkle
nodes, identity secrets/commitments, nullifiers and Shamir shares — is an
element of the BN254 scalar field. :class:`Fr` wraps a Python integer
reduced modulo the field prime and provides the usual operator overloads,
inversion, exponentiation and a fixed 32-byte big-endian serialization.

The class is immutable and hashable so elements can be used as dict keys
(e.g. in the nullifier map).
"""

from __future__ import annotations

from typing import Union

from ..constants import BN254_SCALAR_FIELD, KEY_SIZE_BYTES
from ..errors import FieldError, SerializationError

#: Alias for anything the constructors accept.
FrLike = Union["Fr", int]


class Fr:
    """An element of the BN254 scalar field.

    >>> Fr(3) + Fr(4)
    Fr(7)
    >>> (Fr(3) / Fr(4)) * Fr(4)
    Fr(3)
    """

    MODULUS = BN254_SCALAR_FIELD

    __slots__ = ("_value",)

    def __init__(self, value: FrLike = 0) -> None:
        if isinstance(value, Fr):
            self._value = value._value
        elif isinstance(value, int):
            self._value = value % self.MODULUS
        else:
            raise FieldError(f"cannot build Fr from {type(value).__name__}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Fr":
        """The additive identity."""
        return cls(0)

    @classmethod
    def one(cls) -> "Fr":
        """The multiplicative identity."""
        return cls(1)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Fr":
        """Decode a 32-byte big-endian encoding produced by :meth:`to_bytes`."""
        if len(data) != KEY_SIZE_BYTES:
            raise SerializationError(
                f"Fr encoding must be {KEY_SIZE_BYTES} bytes, got {len(data)}"
            )
        value = int.from_bytes(data, "big")
        if value >= cls.MODULUS:
            raise SerializationError("Fr encoding is not a canonical field element")
        return cls(value)

    @classmethod
    def reduce_bytes(cls, data: bytes) -> "Fr":
        """Map arbitrary bytes into the field by modular reduction.

        Used to hash byte strings (message payloads, domain tags) into
        field elements; unlike :meth:`from_bytes` this never fails.
        """
        return cls(int.from_bytes(data, "big"))

    # -- accessors ---------------------------------------------------------

    @property
    def value(self) -> int:
        """The canonical integer representative in ``[0, MODULUS)``."""
        return self._value

    def to_bytes(self) -> bytes:
        """Fixed 32-byte big-endian encoding (the paper's 32 B key size)."""
        return self._value.to_bytes(KEY_SIZE_BYTES, "big")

    def is_zero(self) -> bool:
        return self._value == 0

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other: FrLike) -> int:
        if isinstance(other, Fr):
            return other._value
        if isinstance(other, int):
            return other % self.MODULUS
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: FrLike) -> "Fr":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return Fr(self._value + rhs)

    __radd__ = __add__

    def __sub__(self, other: FrLike) -> "Fr":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return Fr(self._value - rhs)

    def __mul__(self, other: FrLike) -> "Fr":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return Fr(self._value * rhs)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Fr":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return Fr(pow(self._value, exponent, self.MODULUS))

    def inverse(self) -> "Fr":
        """Multiplicative inverse; raises :class:`FieldError` on zero."""
        if self._value == 0:
            raise FieldError("zero has no multiplicative inverse")
        return Fr(pow(self._value, -1, self.MODULUS))

    def __truediv__(self, other: FrLike) -> "Fr":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self * Fr(rhs).inverse()

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fr):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other % self.MODULUS
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __int__(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Fr({self._value})"
