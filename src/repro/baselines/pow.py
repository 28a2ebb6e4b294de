"""Whisper-style proof-of-work spam protection (EIP-627).

The paper's first baseline: Whisper required each message envelope to
carry a nonce such that the envelope hash shows a minimum amount of
work. The critique (Section I) is twofold:

* PoW is **computationally expensive** — unusable on phones and other
  resource-restricted devices (the honest cost scales with 2^bits /
  device hash rate);
* it provides **no global protection** — a well-equipped spammer mines
  messages faster than honest phones can, and each message is judged in
  isolation, so there is nothing to slash and no way to remove the
  spammer.

``DeviceProfile`` models hash rates so experiments can compare an
attacker workstation against honest phones without actually burning
CPU: mining is performed for real (the nonce search is genuine), but
the *reported cost* in simulated seconds uses expected attempts /
hash rate, keeping benchmarks fast and faithful.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from ..errors import VerificationError
from ..crypto.digests import blake2b


def _envelope_hash(payload: bytes, ttl: int, nonce: int) -> bytes:
    hasher = blake2b(digest_size=32)
    hasher.update(ttl.to_bytes(4, "big"))
    hasher.update(nonce.to_bytes(8, "big"))
    hasher.update(payload)
    return hasher.digest()


def leading_zero_bits(digest: bytes) -> int:
    """Number of leading zero bits in ``digest``."""
    bits = 0
    for byte in digest:
        if byte == 0:
            bits += 8
            continue
        bits += 8 - byte.bit_length()
        break
    return bits


@dataclass(frozen=True)
class PowEnvelope:
    """A mined Whisper-style envelope."""

    payload: bytes
    ttl: int
    nonce: int

    @property
    def work_bits(self) -> int:
        return leading_zero_bits(
            _envelope_hash(self.payload, self.ttl, self.nonce)
        )

    def to_bytes(self) -> bytes:
        return (
            self.ttl.to_bytes(4, "big")
            + self.nonce.to_bytes(8, "big")
            + self.payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "PowEnvelope":
        if len(data) < 12:
            raise VerificationError("truncated PoW envelope")
        return cls(
            ttl=int.from_bytes(data[:4], "big"),
            nonce=int.from_bytes(data[4:12], "big"),
            payload=data[12:],
        )


@dataclass(frozen=True)
class DeviceProfile:
    """Hashing capability of a class of devices (hashes per second)."""

    name: str
    hash_rate: float

    def expected_mining_seconds(self, difficulty_bits: int) -> float:
        """Expected wall-clock to find a ``difficulty_bits`` nonce."""
        return (2.0 ** difficulty_bits) / self.hash_rate


#: Rough 2022-era profiles used by the comparison experiments.
DESKTOP = DeviceProfile("desktop", 2_000_000.0)
PHONE = DeviceProfile("phone", 150_000.0)
IOT_DEVICE = DeviceProfile("iot", 20_000.0)
ATTACKER_RIG = DeviceProfile("attacker-rig", 50_000_000.0)


def mine_envelope(
    payload: bytes,
    difficulty_bits: int,
    ttl: int = 50,
    rng: Optional[random.Random] = None,
    max_attempts: int = 50_000_000,
) -> tuple:
    """Find a nonce meeting ``difficulty_bits``; returns (envelope, attempts).

    The search is genuine (each candidate is hashed); keep
    ``difficulty_bits`` below ~22 in tests so runs stay fast.
    """
    rng = rng or random.Random()
    start = rng.randrange(1 << 62)
    for attempts, nonce in enumerate(
        itertools.count(start), start=1
    ):
        digest = _envelope_hash(payload, ttl, nonce)
        if leading_zero_bits(digest) >= difficulty_bits:
            return PowEnvelope(payload=payload, ttl=ttl, nonce=nonce), attempts
        if attempts >= max_attempts:
            raise VerificationError(
                f"no nonce found within {max_attempts} attempts"
            )


def verify_envelope(envelope: PowEnvelope, difficulty_bits: int) -> bool:
    """Constant-cost verification: one hash."""
    return envelope.work_bits >= difficulty_bits
