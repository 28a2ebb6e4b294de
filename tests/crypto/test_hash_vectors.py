"""Known-answer vectors for the hash kernel, and its slow references.

Every Merkle root, nullifier and commitment in the system is a chain of
``hash1_int`` / ``hash2_int`` digests, so a fast path that drifts by one
byte moves every fingerprint at once. This file pins digests, the
zero-subtree table, a sharded genesis root and a flat-store root per
backend, and checks the bulk kernels against the plainest
implementation of the same thing:
the object-form BLAKE2b field hash (``blake2b_field_hash`` below), a
pairwise ``hash2_int`` loop for ``hash_level_int``, and the one-digest-
per-identity formula for ``genesis_commitments`` — also at the edges
of the 4096-state chunks both bulk paths hash in. The digest
constructors of :mod:`repro.crypto.digests` and the simulated proof's
keyed-BLAKE2b binding MAC are checked against ``hashlib``.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

import pytest
from flat_tree_oracle import FlatTree
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.protocol import genesis_commitments
from repro.crypto import digests
from repro.crypto.field import Fr
from repro.crypto.hashing import (
    blake2b_level_int,
    hash1_int,
    hash2_int,
    hash_call_count,
    hash_level_int,
    set_hash_backend,
)
from repro.crypto.merkle import zero_hashes_int
from repro.crypto.slot_index import PackedFieldList
from repro.crypto.zksnark.groth16 import trusted_setup
from repro.errors import FieldError
from repro.rln.membership import MembershipStore

P = Fr.MODULUS
A = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF % P
B = 0x0FEDCBA987654321

HASH1_INPUTS = (0, 1, P - 1, A, B)
HASH2_INPUTS = ((0, 0), (1, 0), (0, 1), (P - 1, 1), (A, B))

#: Leaves of the flat-store vector, inserted one by one in this order.
FLAT_LEAVES = (1, 2, P - 1, A, B, 7, 8, 9, 10, 11, 12)

#: backend -> digests of HASH1_INPUTS, of HASH2_INPUTS, zero_hashes_int(20)
#: at heights (1, 2, 19, 20), (n, depth, sub_depth, root) of a
#: ``genesis_commitments(n, seed=27)`` batch in a sharded store (with
#: the default root window of 8, the compacted prefix of both batches
#: ends in a one-leaf chunk, so the fold pads an odd tail), and (depth,
#: leaves, slash index, root) of a store with no sub-tree depth after
#: inserting the leaves one by one and slashing one.
VECTORS = {
    "blake2b": (
        (
            0x170CE535FACCBEEC922AFC7890FB5CAB6DA5CC462F298AED79588C63F389EDF4,
            0x301C3B0E1903B0BA97AF9628E42F5C7666242553635749B637C34E87039356DC,
            0x096F1988C6A133CF0ACF5FB49E46A2D756377211436140CC789F2D0E67F9D570,
            0x22D3A6F4822DC6084E7EB4F1147108122DE0C8D731D0433796ED612F3C1DF4D8,
            0x07511F473C9C7FBC9F64B8C97E6B3B28194F9AEED961E16816B80D5EA60D65F0,
        ),
        (
            0x01C3BC3B4787001E6A9E4F7E08CD48B41C258D5FDAA704C93B8E0FFB62F75526,
            0x29ED0376552C3258776DDAEC43C7868073DD98F244B40CFE32D14B7D7FE67943,
            0x1851560C9736173B84B7FC035BEAFDA329CD733FB9F8224EFF83C713A2E8C0B3,
            0x03FBC3AA07E57FAB22AA3AB45A42CAF954A4B20F3DA1C16BD77F08D3711ADCBB,
            0x290131B76D731CF4B11D0060FBFF8F7B9C7AC8900ECC7F1C6E323FEDC36E0EE9,
        ),
        (
            0x01C3BC3B4787001E6A9E4F7E08CD48B41C258D5FDAA704C93B8E0FFB62F75526,
            0x26F0138DA4D7EF5ED1A63F7600D3DC33C1917E335D663A291875A8FF1584147E,
            0x013D2FBAFC38D0FB9F63E025F3999EC0944821F305559CC108D96816C8A5B881,
            0x1FF894D41CB0CB73280DBCAE16C1FA45259F0921E81715DF98421B40BAD966F8,
        ),
        (
            3001,
            12,
            4,
            0x0C8F4F34C0B6EE6A4083FE7EF206C53EA308B337B8C254135943F3BF4302FC91,
        ),
        (
            20,
            FLAT_LEAVES,
            3,
            0x159C538AF7B454E852A0597417665AE7001B72006A2369A1013773C9882BCC97,
        ),
    ),
    "poseidon": (
        (
            0x0B534C4D3062D018011106A684E288EB2CF35D36ABC89EAB27EE1F8A10B12575,
            0x080BB1C119F8EEFA9C94D72CE24B156A2905F9B13CDB82D9614B1D76FF48521E,
            0x013421B8986C28FD7F734A0508ED94AC6FE7B820C0BB37BCA4E4F14D849395B4,
            0x2CB99A59F3FDA7A2F613564B3A810FC516E7E28C1703DBC3357437A718672CAF,
            0x21754D576084D08F42FB29CF9B8DE0C7E63E87985014D394A6397D4B603A6F85,
        ),
        (
            0x29FA7F2F7463617A66F01E25435E0973E7B1926C2F76ED30621139130C4B108E,
            0x283E61DF49AB986D35E7CBDB5F30CF87E6D36147F71F4EA45FAF87B6E45DD232,
            0x254C02366B16DB4666B9266E874A2502622C56116B4E8494FE862E3128139343,
            0x1EC0204F485447E58F5BCD7CC13769A260348382CAE9651CA29DC4EAA6C003FA,
            0x24D4C14E1CD101C96AE33DD001DE55B3F55906E9E139FF8E44FDBB0CC043A00B,
        ),
        (
            0x29FA7F2F7463617A66F01E25435E0973E7B1926C2F76ED30621139130C4B108E,
            0x2444DE4221D0AEA4C1D8FF0A8B4D7BB69CD1DEE4EF87B8A6A6F1432ECE23DD1C,
            0x0D5C215C58080705236AD96768285D52CBB94FBF98D6AE86D656E2C04282FC9C,
            0x0D5C139418878F86D54438D0145C94BFC400BA039154E8ED92B8855C6EB54EE3,
        ),
        (
            21,
            6,
            2,
            0x2D3090D09026ED5CB00608A6FB0667F5643A65D5672BE80BC21128D5DACE4861,
        ),
        (
            8,
            FLAT_LEAVES,
            9,
            0x12CD962BF97FC77751DC49B3AFFEB1273E2BAA75621E22C63655285288B11CE0,
        ),
    ),
}

#: Longest level the kernel differential draws, per backend (Poseidon
#: is ~500x slower per digest in pure Python).
MAX_LEVEL = {"blake2b": 65, "poseidon": 9}


def blake2b_field_hash(inputs: Sequence[Fr]) -> Fr:
    """Object-form BLAKE2b field hash: 1 or 2 elements, arity-tagged."""
    n = len(inputs)
    if n not in (1, 2):
        raise FieldError(f"blake2b_field_hash takes 1 or 2 inputs, got {n}")
    hasher = hashlib.blake2b(digest_size=32, person=b"repro-fr" + bytes([n]))
    for element in inputs:
        hasher.update(Fr(element).to_bytes())
    return Fr.reduce_bytes(hasher.digest())


def pairwise_level(level: Sequence[int], zero: int) -> List[int]:
    """One ``hash2_int`` per pair, an odd tail paired with ``zero``."""
    return [
        hash2_int(level[i], level[i + 1] if i + 1 < len(level) else zero)
        for i in range(0, len(level), 2)
    ]


def genesis_oracle(count: int, seed: int) -> List[int]:
    """One fresh BLAKE2b per identity over ``genesis-member:<seed>:<i>``."""
    values = []
    for i in range(count):
        data = b"genesis-member:%d:%d" % (seed, i)
        digest = hashlib.blake2b(data, digest_size=32).digest()
        values.append(int.from_bytes(digest, "big") % P or 1)
    return values


@pytest.fixture(params=sorted(VECTORS))
def backend(request):
    set_hash_backend(request.param)
    return request.param


def test_hash1_and_hash2_digests_are_pinned(backend):
    hash1_pins, hash2_pins, _, _, _ = VECTORS[backend]
    assert [hash1_int(x) for x in HASH1_INPUTS] == list(hash1_pins)
    assert [hash2_int(x, y) for x, y in HASH2_INPUTS] == list(hash2_pins)


def test_zero_hash_table_is_pinned(backend):
    _, _, zero_pins, _, _ = VECTORS[backend]
    zeros = zero_hashes_int(20)
    assert zeros[0] == 0
    assert tuple(zeros[h] for h in (1, 2, 19, 20)) == zero_pins


def test_sharded_genesis_root_is_pinned(backend):
    _, _, _, (n, depth, sub_depth, root), _ = VECTORS[backend]
    store = MembershipStore(depth=depth, sub_depth=sub_depth)
    group = store.local_group()
    group.apply_registration_batch(genesis_commitments(n, seed=27), 0)
    assert store.canonical().genesis_version % (1 << sub_depth) == 1
    assert int(group.root) == root


def test_flat_store_root_is_pinned(backend):
    *_, (depth, leaves, slash, root) = VECTORS[backend]
    view = MembershipStore(depth=depth).view()
    reference = FlatTree(depth)
    for leaf in leaves:
        view.synced_insert(Fr(leaf))
        reference.insert(Fr(leaf))
    view.synced_update(slash, Fr.zero())
    reference.delete(slash)
    assert int(view.root) == int(reference.root) == root


def test_fast_blake2b_equals_the_object_form_on_pins():
    for x in HASH1_INPUTS:
        assert Fr(hash1_int(x)) == blake2b_field_hash([Fr(x)])
    for x, y in HASH2_INPUTS:
        assert Fr(hash2_int(x, y)) == blake2b_field_hash([Fr(x), Fr(y)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=P - 1),
    st.integers(min_value=0, max_value=P - 1),
)
def test_fast_blake2b_equals_the_object_form(x, y):
    assert Fr(hash1_int(x)) == blake2b_field_hash([Fr(x)])
    assert Fr(hash2_int(x, y)) == blake2b_field_hash([Fr(x), Fr(y)])


@pytest.mark.parametrize("name", sorted(MAX_LEVEL))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_level_kernel_equals_the_pairwise_loop(name, data):
    level = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=P - 1),
            max_size=MAX_LEVEL[name],
        )
    )
    zero = data.draw(st.integers(min_value=1, max_value=P - 1))
    packed = data.draw(st.booleans())
    set_hash_backend(name)  # the autouse fixture restores the default
    expected = pairwise_level(level, zero)
    before = hash_call_count()
    parents = hash_level_int(
        PackedFieldList.of(level) if packed else level, zero
    )
    assert hash_call_count() - before == (len(level) + 1) // 2
    assert parents == expected


#: Level lengths (nodes) around the bulk kernel's chunks of 4096
#: pairs: 0 pairs, 1, an odd number, 4096, 4097 and 8193, with and
#: without an odd tail padded by the zero node.
CHUNK_LEVELS = (0, 1, 2, 7, 14, 8191, 8192, 8193, 16385, 16386)


@pytest.mark.parametrize("n", CHUNK_LEVELS)
def test_level_kernel_equals_the_pairwise_loop_across_chunks(n):
    set_hash_backend("blake2b")  # the autouse fixture restores the default
    level = genesis_oracle(n, seed=n)
    zero = hash1_int(n)
    expected = pairwise_level(level, zero)
    assert len(expected) == (n + 1) // 2
    assert blake2b_level_int(level, zero) == expected
    assert blake2b_level_int(PackedFieldList.of(level), zero) == expected


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=1 << 40),
)
@example(4095, 11)  # around the 4096-member chunks
@example(4096, 11)
@example(4097, 11)
@example(8193, 11)
def test_genesis_commitments_equal_the_per_identity_formula(count, seed):
    assert list(genesis_commitments(count, seed)) == genesis_oracle(
        count, seed
    )


#: Empty, short, and several blocks of every digest (64 B for SHA-256,
#: 128 B for BLAKE2b and SHA-512), not a multiple of any.
DIGEST_INPUTS = (b"", b"abc", bytes(range(256)) * 3 + b"tail")

#: BLAKE2b parameters the code uses: default, a short digest, the
#: field hash's personalisation, and the proof MAC's key.
BLAKE2B_VARIANTS = (
    {},
    {"digest_size": 16},
    {"digest_size": 32, "person": b"repro-fr\x01"},
    {"digest_size": 32, "key": bytes(range(32))},
)


@pytest.mark.parametrize("data", DIGEST_INPUTS)
@pytest.mark.parametrize("params", BLAKE2B_VARIANTS)
def test_blake2b_equals_hashlib(params, data):
    expected = hashlib.blake2b(data, **params).digest()
    assert digests.blake2b(data, **params).digest() == expected
    streamed = digests.blake2b(**params)
    for start in range(0, len(data), 100):
        streamed.copy().update(b"ignored")  # a copy leaves its source be
        streamed.update(data[start : start + 100])
    assert streamed.digest() == expected


@pytest.mark.parametrize("data", DIGEST_INPUTS)
@pytest.mark.parametrize("name", ("sha256", "sha512"))
def test_sha2_equals_hashlib(name, data):
    ours = getattr(digests, name)
    assert ours(data).digest() == hashlib.new(name, data).digest()
    assert ours(data).hexdigest() == hashlib.new(name, data).hexdigest()


def test_proof_binding_is_keyed_blake2b():
    """``pi_c`` is BLAKE2b keyed with the binding secret over
    ``circuit id | 0 | pi_a | pi_b | public inputs``."""
    _, vk = trusted_setup("square", num_public_inputs=2, seed=b"test")
    assert vk.binding_key == hashlib.sha256(b"srs|test").digest()
    pi_a, pi_b, public = bytes(range(32)), bytes(range(64)), (Fr(9), Fr(P - 1))
    payload = b"square\x00" + pi_a + pi_b + (9).to_bytes(32, "big")
    payload += (P - 1).to_bytes(32, "big")
    expected = hashlib.blake2b(
        payload, key=vk.binding_key, digest_size=32
    ).digest()
    assert vk._binding(pi_a, pi_b, public) == expected
