"""Poseidon hash over the BN254 scalar field.

The RLN construction hashes field elements at every layer: identity
commitments ``pk = H(sk)``, internal nullifiers ``phi = H(H(sk, epoch))``,
Shamir coefficients ``a1 = H(sk, epoch)`` and every Merkle-tree node.
The reference implementation (circomlib / kilic-rln) uses Poseidon, a
sponge built from a partial-SBox permutation that is cheap inside
arithmetic circuits.

This module implements the genuine Poseidon permutation:

* state width ``t`` in {2, 3} (1- and 2-input compression),
* S-box ``x -> x^5`` (BN254's scalar field has gcd(5, p-1) = 1),
* ``R_F = 8`` full rounds and the circomlib partial-round counts
  (``R_P = 56`` for t=2, ``R_P = 57`` for t=3),
* round constants and an invertible MDS matrix derived deterministically
  from SHA-256 in counter mode (a simplification of the Grain LFSR used
  by the reference parameter generator — the security argument only needs
  "nothing up my sleeve" constants and an MDS matrix, both of which this
  construction provides).

Because parameter *values* differ from circomlib's, digests differ from
the reference implementation's, but every protocol-relevant property
(determinism, field-valued output, fixed arity, collision resistance,
circuit-friendliness and constraint counts) is preserved. DESIGN.md
records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from ..errors import FieldError
from .digests import sha256
from .field import Fr

#: Number of full rounds (split half before, half after the partial rounds).
FULL_ROUNDS = 8

#: Partial-round counts per state width, matching circomlib's schedule.
PARTIAL_ROUNDS = {2: 56, 3: 57, 4: 56, 5: 60}

_SBOX_EXPONENT = 5


def _derive_field_elements(tag: str, count: int) -> List[Fr]:
    """Derive ``count`` nothing-up-my-sleeve field elements from ``tag``.

    SHA-256 in counter mode; 256-bit outputs are reduced mod p. The bias
    from reduction is ~2^-128 per element, which is irrelevant here.
    """
    elements: List[Fr] = []
    counter = 0
    while len(elements) < count:
        digest = sha256(f"{tag}|{counter}".encode()).digest()
        elements.append(Fr.reduce_bytes(digest))
        counter += 1
    return elements


def _derive_mds_matrix(t: int) -> Tuple[Tuple[Fr, ...], ...]:
    """Build a ``t x t`` Cauchy matrix ``M[i][j] = 1 / (x_i + y_j)``.

    Cauchy matrices over a prime field are MDS whenever the ``x_i`` are
    pairwise distinct, the ``y_j`` are pairwise distinct and
    ``x_i + y_j != 0`` for all pairs; the derivation retries until those
    conditions hold.
    """
    attempt = 0
    while True:
        seed = f"poseidon-mds-t{t}-attempt{attempt}"
        points = _derive_field_elements(seed, 2 * t)
        xs, ys = points[:t], points[t:]
        distinct = len({int(v) for v in points}) == 2 * t
        no_zero_sum = all(not (x + y).is_zero() for x in xs for y in ys)
        if distinct and no_zero_sum:
            return tuple(
                tuple((x + y).inverse() for y in ys) for x in xs
            )
        attempt += 1


@dataclass(frozen=True)
class PoseidonParameters:
    """Round constants and MDS matrix for one state width."""

    t: int
    full_rounds: int
    partial_rounds: int
    round_constants: Tuple[Fr, ...]
    mds: Tuple[Tuple[Fr, ...], ...]

    @property
    def total_rounds(self) -> int:
        return self.full_rounds + self.partial_rounds


@lru_cache(maxsize=None)
def poseidon_parameters(t: int) -> PoseidonParameters:
    """Deterministic parameters for state width ``t``."""
    if t not in PARTIAL_ROUNDS:
        raise FieldError(f"unsupported Poseidon state width t={t}")
    partial = PARTIAL_ROUNDS[t]
    total = FULL_ROUNDS + partial
    constants = tuple(_derive_field_elements(f"poseidon-rc-t{t}", total * t))
    mds = _derive_mds_matrix(t)
    return PoseidonParameters(
        t=t,
        full_rounds=FULL_ROUNDS,
        partial_rounds=partial,
        round_constants=constants,
        mds=mds,
    )


@lru_cache(maxsize=None)
def poseidon_parameters_int(
    t: int,
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """Integer-form ``(round_constants, mds)`` for state width ``t``.

    The permutation works on plain integers; re-deriving these from the
    :class:`Fr`-typed :class:`PoseidonParameters` on every call used to
    dominate the hash cost, so they are cached once per width here.
    """
    params = poseidon_parameters(t)
    constants = tuple(int(c) for c in params.round_constants)
    mds = tuple(tuple(int(c) for c in row) for row in params.mds)
    return constants, mds


def poseidon_permutation_int(state: Sequence[int]) -> List[int]:
    """Int-native Poseidon permutation (length of ``state`` = t).

    Inputs must already be reduced modulo the field prime; outputs are
    canonical integers. This is the hot path — no :class:`Fr` objects
    are created anywhere inside.
    """
    t = len(state)
    params = poseidon_parameters(t)
    constants, mds_int = poseidon_parameters_int(t)
    modulus = Fr.MODULUS
    values = list(state)

    half_full = params.full_rounds // 2
    partial_start = half_full
    partial_end = half_full + params.partial_rounds

    for round_index in range(params.total_rounds):
        base = round_index * t
        for i in range(t):
            values[i] = (values[i] + constants[base + i]) % modulus
        if partial_start <= round_index < partial_end:
            values[0] = pow(values[0], _SBOX_EXPONENT, modulus)
        else:
            values = [pow(v, _SBOX_EXPONENT, modulus) for v in values]
        values = [
            sum(mds_int[i][j] * values[j] for j in range(t)) % modulus
            for i in range(t)
        ]
    return values


def poseidon_permutation(state: Sequence[Fr]) -> List[Fr]:
    """Apply the Poseidon permutation to ``state`` (length = t)."""
    return [
        Fr(v)
        for v in poseidon_permutation_int([int(Fr(x)) for x in state])
    ]


def poseidon_hash1_int(x: int) -> int:
    """Int-native single-input Poseidon hash."""
    return poseidon_permutation_int([1, x])[0]


def poseidon_hash2_int(x: int, y: int) -> int:
    """Int-native two-input Poseidon hash."""
    return poseidon_permutation_int([2, x, y])[0]


def poseidon_hash(inputs: Sequence[Fr]) -> Fr:
    """Hash 1 or 2 field elements with a fixed-arity Poseidon sponge.

    The capacity element is initialised with a domain tag encoding the
    arity (as circomlib does), the inputs fill the rate, and the first
    state element after one permutation is the digest.
    """
    n = len(inputs)
    if n not in (1, 2):
        raise FieldError(f"poseidon_hash takes 1 or 2 inputs, got {n}")
    state = [n, *[int(Fr(x)) for x in inputs]]
    return Fr(poseidon_permutation_int(state)[0])


def poseidon_hash1(x: Fr) -> Fr:
    """Single-input Poseidon hash, ``H(x)`` — used for pk = H(sk)."""
    return poseidon_hash([x])


def poseidon_hash2(x: Fr, y: Fr) -> Fr:
    """Two-input Poseidon hash, ``H(x, y)`` — used for tree nodes and
    the RLN nullifier/share derivations."""
    return poseidon_hash([x, y])
