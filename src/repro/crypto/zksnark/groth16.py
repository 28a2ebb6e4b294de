"""Simulated Groth16 backend.

The paper's RLN library proves the RLN relation with Groth16 over BN254.
Pairing-based proving is out of scope for a pure-Python reproduction, so
this module provides a *behaviourally faithful* simulation:

* **Setup** produces a proving key / verifying key pair bound to a named
  circuit. The proving key records the circuit's R1CS size and models
  the paper's 3.89 MB prover-key footprint; keys carry a shared binding
  secret standing in for the structured reference string.
* **Prove** refuses to produce a proof unless the statement's witness
  actually satisfies the relation — either via the fast native checker
  or by synthesising and checking the full R1CS. Completeness and
  (in-simulation) soundness therefore hold: no valid witness, no proof.
* **Proofs** are constant-size (128 bytes, the compressed BN254 Groth16
  size), randomised per invocation (zero-knowledge: two proofs of the
  same statement are unlinkable and reveal nothing about the witness),
  and bound to the public inputs by a MAC standing in for the pairing
  check: BLAKE2b keyed with the SRS binding secret (RFC 7693's MAC mode).
* **Verify** recomputes the binding MAC and compares it in constant
  time; the cost is constant in the group size, matching the paper's
  ≈30 ms constant verification cost (the wall-clock value itself comes
  from :mod:`repro.crypto.zksnark.timing`, not from this code).

DESIGN.md documents this substitution (real Groth16 → checked-witness
MAC binding) and why it preserves the protocol-relevant behaviour.
"""

from __future__ import annotations

import os
from _operator import _compare_digest
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ...constants import PROOF_SIZE_BYTES, PROVER_KEY_SIZE_BYTES
from ...errors import ProofError, SerializationError
from ..digests import blake2b, sha256, sha512
from ..field import Fr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .r1cs import ConstraintSystem


@runtime_checkable
class Statement(Protocol):
    """What a circuit instance must expose to be proved.

    ``check_witness`` is the fast native relation check used by default;
    ``synthesize`` builds the full R1CS for constraint-count reporting
    and end-to-end R1CS-mode proving.
    """

    def public_inputs(self) -> Tuple[Fr, ...]: ...

    def check_witness(self) -> bool: ...

    def synthesize(self) -> ConstraintSystem: ...


@dataclass(frozen=True)
class Proof:
    """A constant-size simulated Groth16 proof ``(pi_a, pi_b, pi_c)``."""

    pi_a: bytes  # 32 B — stands in for a compressed G1 point
    pi_b: bytes  # 64 B — stands in for a compressed G2 point
    pi_c: bytes  # 32 B — the public-input binding

    def to_bytes(self) -> bytes:
        data = self.pi_a + self.pi_b + self.pi_c
        if len(data) != PROOF_SIZE_BYTES:
            raise SerializationError("malformed proof components")
        return data

    @classmethod
    def from_bytes(cls, data: bytes) -> "Proof":
        if len(data) != PROOF_SIZE_BYTES:
            raise SerializationError(
                f"proof must be {PROOF_SIZE_BYTES} bytes, got {len(data)}"
            )
        return cls(pi_a=data[:32], pi_b=data[32:96], pi_c=data[96:128])

    @property
    def size_bytes(self) -> int:
        return PROOF_SIZE_BYTES


@dataclass(frozen=True)
class VerifyingKey:
    """Public verification material for one circuit."""

    circuit_id: str
    binding_key: bytes
    num_public_inputs: int

    def _binding(self, pi_a: bytes, pi_b: bytes, public_inputs: Sequence[Fr]) -> bytes:
        payload = bytearray()
        payload += self.circuit_id.encode()
        payload += b"\x00" + pi_a + pi_b
        for value in public_inputs:
            payload += Fr(value).to_bytes()
        return blake2b(payload, key=self.binding_key, digest_size=32).digest()


@dataclass(frozen=True)
class ProvingKey:
    """Prover material: the verifying key plus circuit metadata.

    ``size_bytes`` models the paper's 3.89 MB prover key; the real key
    scales with circuit size, so we scale it by constraint count
    relative to the depth-20 RLN circuit when that count is known.
    """

    verifying_key: VerifyingKey
    num_constraints: Optional[int] = None

    #: Constraint count of the depth-20 RLN circuit (the configuration
    #: the paper's 3.89 MB prover key belongs to); see
    #: :func:`repro.crypto.zksnark.timing.rln_constraint_count`.
    _REFERENCE_CONSTRAINTS = 5_579

    @property
    def size_bytes(self) -> int:
        if self.num_constraints is None:
            return PROVER_KEY_SIZE_BYTES
        scale = self.num_constraints / self._REFERENCE_CONSTRAINTS
        return max(1, int(PROVER_KEY_SIZE_BYTES * scale))


def trusted_setup(
    circuit_id: str,
    num_public_inputs: int,
    num_constraints: Optional[int] = None,
    seed: Optional[bytes] = None,
) -> Tuple[ProvingKey, VerifyingKey]:
    """Run the (simulated) circuit-specific trusted setup.

    ``seed`` fixes the binding secret for deterministic tests; by default
    a fresh random secret is drawn, as a real ceremony would.
    """
    if seed is None:
        binding_key = os.urandom(32)
    else:
        binding_key = sha256(b"srs|" + seed).digest()
    vk = VerifyingKey(
        circuit_id=circuit_id,
        binding_key=binding_key,
        num_public_inputs=num_public_inputs,
    )
    return ProvingKey(verifying_key=vk, num_constraints=num_constraints), vk


def prove(
    proving_key: ProvingKey,
    statement: Statement,
    mode: str = "native",
    rng=None,
) -> Proof:
    """Produce a proof for ``statement``; raises on an invalid witness.

    ``mode="native"`` runs the statement's direct relation check (fast
    path for large simulations); ``mode="r1cs"`` synthesises the full
    constraint system and checks satisfaction constraint by constraint.
    """
    vk = proving_key.verifying_key
    if mode == "native":
        if not statement.check_witness():
            raise ProofError("witness does not satisfy the relation")
    elif mode == "r1cs":
        cs = statement.synthesize()  # synthesis itself enforces constraints
        if not cs.is_satisfied():
            raise ProofError("R1CS assignment is unsatisfied")
        expected = tuple(statement.public_inputs())
        if cs.public_inputs() != expected:
            raise ProofError("R1CS public inputs disagree with the statement")
    else:
        raise ProofError(f"unknown proving mode {mode!r}")

    public = statement.public_inputs()
    if len(public) != vk.num_public_inputs:
        raise ProofError(
            f"statement has {len(public)} public inputs, "
            f"circuit expects {vk.num_public_inputs}"
        )
    if rng is None:
        randomness = os.urandom(32)
    else:
        randomness = rng.randrange(1 << 256).to_bytes(32, "big")
    # pi_a / pi_b are random group elements in real Groth16 (the r and s
    # blinding factors make proofs unlinkable); we model them as hashes
    # of fresh randomness so that repeated proofs of the same statement
    # are distinct and witness-independent.
    pi_a = sha256(b"pi_a|" + randomness).digest()
    pi_b = sha512(b"pi_b|" + randomness).digest()
    pi_c = vk._binding(pi_a, pi_b, public)
    return Proof(pi_a=pi_a, pi_b=pi_b, pi_c=pi_c)


def verify(
    verifying_key: VerifyingKey,
    proof: Proof,
    public_inputs: Sequence[Fr],
) -> bool:
    """Check ``proof`` against ``public_inputs``.

    Constant-time in the group size: the work is one MAC over the fixed
    number of public inputs, mirroring Groth16's fixed pairing count.
    """
    if len(public_inputs) != verifying_key.num_public_inputs:
        return False
    expected = verifying_key._binding(proof.pi_a, proof.pi_b, public_inputs)
    return _compare_digest(expected, proof.pi_c)
