"""RLN identity key material.

A member's long-term identity is a single field element ``sk`` (the
*identity secret*); the public key registered on-chain is its hash
``pk = H(sk)`` (the *identity commitment*). Both serialize to exactly
32 bytes, matching Section IV of the paper ("Each peer persists a 32B
public and secret keys").
"""

from __future__ import annotations

from dataclasses import dataclass
from random import SystemRandom

from .field import Fr
from .hashing import hash1

#: Draws from the OS CSPRNG (``os.urandom``), as ``secrets`` does.
_os_randrange = SystemRandom().randrange


@dataclass(frozen=True)
class IdentitySecret:
    """The member-held secret key ``sk``."""

    element: Fr

    @classmethod
    def generate(cls, rng=None) -> "IdentitySecret":
        """Sample a fresh uniformly random identity secret.

        ``rng`` may be a :class:`random.Random` for deterministic tests;
        by default the OS CSPRNG is used.
        """
        if rng is None:
            value = _os_randrange(Fr.MODULUS)
        else:
            value = rng.randrange(Fr.MODULUS)
        return cls(Fr(value))

    def commitment(self) -> "IdentityCommitment":
        """Derive the public identity commitment ``pk = H(sk)``."""
        return IdentityCommitment(hash1(self.element))

    def to_bytes(self) -> bytes:
        return self.element.to_bytes()


@dataclass(frozen=True)
class IdentityCommitment:
    """The on-chain public key ``pk = H(sk)`` (a Merkle-tree leaf)."""

    element: Fr

    def to_bytes(self) -> bytes:
        return self.element.to_bytes()


@dataclass(frozen=True)
class MembershipKeyPair:
    """Convenience bundle of a secret and its commitment."""

    secret: IdentitySecret
    commitment: IdentityCommitment

    @classmethod
    def generate(cls, rng=None) -> "MembershipKeyPair":
        secret = IdentitySecret.generate(rng)
        return cls(secret=secret, commitment=secret.commitment())
