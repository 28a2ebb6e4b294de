"""Hash backends and domain-separated helpers.

Two interchangeable field-hash backends:

* ``"poseidon"`` — the genuine Poseidon permutation
  (:mod:`repro.crypto.poseidon`); circuit-faithful but ~100x slower in
  pure Python.
* ``"blake2b"`` — BLAKE2b reduced into the field; used by default in
  large network simulations where thousands of Merkle inserts and signal
  verifications happen per run.

Both backends expose the same arity-1/arity-2 API, so every layer above
(Merkle trees, nullifiers, Shamir coefficient derivation) is
backend-independent. Tests assert that the protocol state machine
produces identical *decisions* under either backend.

Int-native fast path
--------------------

The hot loops (Merkle path rehashing, signal verification) spend most of
their time hashing, and most of *that* used to be :class:`Fr` object
churn: wrap, re-reduce, ``to_bytes``, unwrap. Each backend therefore
registers int-native kernels — :func:`hash1_int` / :func:`hash2_int`
take and return canonical integers in ``[0, MODULUS)`` with no ``Fr``
allocation anywhere inside, and :func:`hash_level_int` hashes a whole
tree level (bulk builds) in one call. The ``Fr``-typed :func:`hash1` /
:func:`hash2` are thin wrappers over the int path.

Every digest through the int entry points bumps a process-wide counter
(:func:`hash_call_count`), which benchmarks use to report network-wide
hash work.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat, starmap
from operator import itemgetter, mod
from struct import iter_unpack
from typing import Iterator, List, Sequence, Union

from ..errors import FieldError
from .digests import blake2b
from .field import Fr
from .poseidon import poseidon_hash1_int, poseidon_hash2_int
from .slot_index import PackedFieldList

_MODULUS = Fr.MODULUS

#: One personalised BLAKE2b state per arity. A digest hashes a copy:
#: the same state as a freshly built one, at a fraction of the cost.
_BLAKE2B_1 = blake2b(digest_size=32, person=b"repro-fr\x01")
_BLAKE2B_2 = blake2b(digest_size=32, person=b"repro-fr\x02")

#: One level of tree nodes: ints, or a packed (genesis) leaf chunk.
Level = Union[Sequence[int], PackedFieldList]

#: Most BLAKE2b states a bulk digest holds at once (456 B each).
BULK_CHUNK = 4096


def blake2b_digests_int(state, messages: Sequence[bytes]) -> Iterator[int]:
    """``int(digest) % MODULUS`` of a copy of BLAKE2b ``state`` updated
    with each message; copies up front, so pass at most :data:`BULK_CHUNK`."""
    states = list(starmap(state.copy, repeat((), len(messages))))
    deque(map(blake2b.update, states, messages), 0)
    digests = map(blake2b.digest, states)
    ints = map(int.from_bytes, digests, repeat("big"))
    return map(mod, ints, repeat(_MODULUS))


def blake2b_hash1_int(x: int) -> int:
    """Int-native arity-1 BLAKE2b field hash."""
    hasher = _BLAKE2B_1.copy()
    hasher.update(x.to_bytes(32, "big"))
    return int.from_bytes(hasher.digest(), "big") % _MODULUS


def blake2b_hash2_int(x: int, y: int) -> int:
    """Int-native arity-2 BLAKE2b field hash."""
    hasher = _BLAKE2B_2.copy()
    hasher.update(x.to_bytes(32, "big"))
    hasher.update(y.to_bytes(32, "big"))
    return int.from_bytes(hasher.digest(), "big") % _MODULUS


def blake2b_level_int(level: Level, zero: int) -> List[int]:
    """:func:`blake2b_hash2_int` over each pair of ``level``, by chunks.
    A packed list already holds the 64-byte pairs those calls would
    encode, so it is hashed from its bytes with no int decode."""
    parents: List[int] = []
    for start in range(0, len(level), 2 * BULK_CHUNK):
        nodes = level[start : start + 2 * BULK_CHUNK]
        if isinstance(nodes, PackedFieldList):
            data = bytes(nodes)
        else:
            data = b"".join([node.to_bytes(32, "big") for node in nodes])
        if len(data) % 64:
            data += zero.to_bytes(32, "big")
        pairs = list(map(itemgetter(0), iter_unpack("64s", data)))
        parents.extend(blake2b_digests_int(_BLAKE2B_2, pairs))
    return parents


def poseidon_level_int(level: Level, zero: int) -> List[int]:
    """:func:`poseidon_hash2_int` over each pair of ``level``."""
    nodes = list(level)
    if len(nodes) % 2:
        nodes.append(zero)
    pairs = iter(nodes)
    return [poseidon_hash2_int(x, y) for x, y in zip(pairs, pairs)]


#: backend name -> its int-native (arity-1, arity-2, level) kernels.
_KERNELS = {
    "poseidon": (poseidon_hash1_int, poseidon_hash2_int, poseidon_level_int),
    "blake2b": (blake2b_hash1_int, blake2b_hash2_int, blake2b_level_int),
}

_active_backend_name = "blake2b"
_active_hash1_int, _active_hash2_int, _active_level_int = _KERNELS["blake2b"]

#: Process-wide count of field-hash invocations (benchmark probe).
_hash_calls = 0


def set_hash_backend(name: str) -> None:
    """Select the process-wide field-hash backend.

    Changing backends invalidates previously computed commitments and
    tree roots, so switch only at the start of a simulation. Caches
    keyed by the backend name (the zero-hash table, the external
    nullifier memo) need no flush — their entries are per-backend.
    """
    global _active_backend_name, _active_hash1_int, _active_hash2_int
    global _active_level_int
    if name not in _KERNELS:
        raise FieldError(
            f"unknown hash backend {name!r}; available: "
            f"{tuple(sorted(_KERNELS))}"
        )
    _active_backend_name = name
    _active_hash1_int, _active_hash2_int, _active_level_int = _KERNELS[name]


def get_hash_backend() -> str:
    """Name of the currently active backend."""
    return _active_backend_name


def hash_call_count() -> int:
    """Total field-hash invocations in this process (monotonic).

    Benchmarks diff this around a workload to report how much hashing
    the network really performed — the shared membership store's
    headline number is measured with it.
    """
    return _hash_calls


def hash1_int(x: int) -> int:
    """Int-native arity-1 field hash under the active backend.

    ``x`` must be a canonical integer in ``[0, MODULUS)``.
    """
    global _hash_calls
    _hash_calls += 1
    return _active_hash1_int(x)


def hash2_int(x: int, y: int) -> int:
    """Int-native arity-2 field hash under the active backend.

    Inputs must be canonical integers in ``[0, MODULUS)``.
    """
    global _hash_calls
    _hash_calls += 1
    return _active_hash2_int(x, y)


def hash_level_int(level: Level, zero: int) -> List[int]:
    """Parent level of ``level`` under the active backend.

    Parent ``j`` is ``hash2_int(level[2j], level[2j + 1])``; an odd
    tail is paired with ``zero``. Counts one hash per parent.
    """
    global _hash_calls
    parents = _active_level_int(level, zero)
    _hash_calls += len(parents)
    return parents


def hash1(x: Fr) -> Fr:
    """Domain-separated arity-1 field hash under the active backend."""
    return Fr(hash1_int(Fr(x)._value))


def hash2(x: Fr, y: Fr) -> Fr:
    """Domain-separated arity-2 field hash under the active backend."""
    return Fr(hash2_int(Fr(x)._value, Fr(y)._value))


def hash_bytes_to_field(data: bytes, domain: str = "msg") -> Fr:
    """Map an arbitrary byte string (e.g. a message payload) into Fr.

    RLN evaluates the Shamir line at ``x = H(m)``; this is that ``H``.
    """
    hasher = blake2b(digest_size=32)
    hasher.update(domain.encode())
    hasher.update(b"\x00")
    hasher.update(data)
    return Fr.reduce_bytes(hasher.digest())
