"""The RLN relation as a provable statement.

The statement proved with every signal (paper Section II):

    Given public ``(root, e, x, y, phi)``, I know a secret ``sk`` and a
    Merkle path such that:

    1. ``pk = H(sk)`` is a leaf of the membership tree with root
       ``root``                                 (membership);
    2. ``a1 = H(sk, e)`` and ``y = sk + a1 * x``  (the revealed point
       really lies on my rate-limit line)        (share correctness);
    3. ``phi = H(a1)``                            (nullifier correctness).

:class:`RlnStatement` implements both proving paths accepted by the
simulated Groth16 backend:

* :meth:`check_witness` — the relation evaluated directly with the
  active hash backend (fast; used in large network simulations);
* :meth:`synthesize` — a genuine R1CS built from Poseidon/Merkle gadgets
  (requires the ``poseidon`` hash backend, since the in-circuit hash is
  the real Poseidon permutation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from ..crypto.field import Fr
from ..crypto.hashing import get_hash_backend, hash1, hash2
from ..crypto.merkle import MerkleProof
from ..crypto.shamir import Share
from ..errors import CircuitError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crypto.zksnark.r1cs import ConstraintSystem

#: Public-input count of the RLN circuit: (root, e, x, y, phi).
RLN_PUBLIC_INPUTS = 5

#: Identifier binding proving/verifying keys to this circuit.
RLN_CIRCUIT_ID = "rln-v1"


@dataclass(frozen=True)
class RlnStatement:
    """One instance of the RLN relation (publics + witness)."""

    # public
    merkle_root: Fr
    ext_nullifier: Fr
    x: Fr
    y: Fr
    internal_nullifier: Fr
    # witness
    secret: Fr
    merkle_proof: MerkleProof

    @classmethod
    def build(
        cls,
        secret: Fr,
        ext_nullifier: Fr,
        x: Fr,
        merkle_proof: MerkleProof,
    ) -> "RlnStatement":
        """Derive the public outputs honestly from the witness."""
        a1 = hash2(secret, ext_nullifier)
        return cls(
            merkle_root=merkle_proof.compute_root(),
            ext_nullifier=Fr(ext_nullifier),
            x=Fr(x),
            y=Fr(secret) + a1 * Fr(x),
            internal_nullifier=hash1(a1),
            secret=Fr(secret),
            merkle_proof=merkle_proof,
        )

    def share(self) -> Share:
        return Share(x=self.x, y=self.y)

    # -- Statement protocol ------------------------------------------------

    def public_inputs(self) -> Tuple[Fr, ...]:
        return (
            self.merkle_root,
            self.ext_nullifier,
            self.x,
            self.y,
            self.internal_nullifier,
        )

    def check_witness(self) -> bool:
        """Evaluate the relation natively under the active hash backend."""
        pk = hash1(self.secret)
        if self.merkle_proof.leaf != pk:
            return False
        if self.merkle_proof.compute_root() != self.merkle_root:
            return False
        a1 = hash2(self.secret, self.ext_nullifier)
        if self.y != self.secret + a1 * self.x:
            return False
        return self.internal_nullifier == hash1(a1)

    def synthesize(self) -> ConstraintSystem:
        """Build the full R1CS for this instance.

        The in-circuit hash is the genuine Poseidon permutation, so the
        instance's publics must have been derived under the ``poseidon``
        backend; synthesising under another backend raises immediately
        rather than failing deep inside a constraint.
        """
        from ..crypto.zksnark.gadgets import (
            merkle_path_gadget,
            poseidon_hash_gadget,
        )
        from ..crypto.zksnark.r1cs import ConstraintSystem

        if get_hash_backend() != "poseidon":
            raise CircuitError(
                "R1CS synthesis requires the 'poseidon' hash backend "
                f"(active: {get_hash_backend()!r}); "
                "call set_hash_backend('poseidon') before building statements"
            )
        cs = ConstraintSystem()
        root = cs.alloc_public("root", self.merkle_root)
        ext = cs.alloc_public("external_nullifier", self.ext_nullifier)
        x = cs.alloc_public("x", self.x)
        y = cs.alloc_public("y", self.y)
        phi = cs.alloc_public("internal_nullifier", self.internal_nullifier)

        sk = cs.alloc("sk", self.secret)

        # 1. membership: pk = H(sk) sits in the tree under `root`
        pk = poseidon_hash_gadget(cs, [sk], "pk")
        bits = [
            cs.alloc(f"path_bit_{i}", Fr(bit))
            for i, bit in enumerate(self.merkle_proof.path_bits)
        ]
        siblings = [
            cs.alloc(f"sibling_{i}", value)
            for i, value in enumerate(self.merkle_proof.siblings)
        ]
        computed_root = merkle_path_gadget(cs, pk, bits, siblings, "membership")
        cs.enforce_equal(computed_root, root, "membership.root")

        # 2. share correctness: y = sk + H(sk, e) * x
        a1 = poseidon_hash_gadget(cs, [sk, ext], "a1")
        a1_times_x = cs.mul(a1, x, "share.a1x")
        cs.enforce_equal(sk.lc() + a1_times_x.lc(), y, "share.y")

        # 3. nullifier correctness: phi = H(a1)
        computed_phi = poseidon_hash_gadget(cs, [a1], "phi")
        cs.enforce_equal(computed_phi, phi, "nullifier.phi")
        return cs
