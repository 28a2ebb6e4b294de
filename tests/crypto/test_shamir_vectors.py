"""Known-answer vectors for nullifiers and double-signal recovery, and
the int-native recovery checked against the object-form oracle.

Slashing rests on three derivations: the external nullifier of an
(epoch, domain), the member's internal nullifier ``H(H(sk, e))``, and
``sk`` recovered as the intercept of the line through two shares. This
file pins each per backend, including the edge points 0, 1 and p-1, and
checks :func:`line_intercept` (memoised, one inversion) against the
general Lagrange in ``shamir_oracle.py`` with its memo warm and cold.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import Fr
from repro.crypto.hashing import set_hash_backend
from repro.crypto.shamir import (
    Share,
    line_intercept,
    recover_secret_from_double_signal,
    rln_share,
)
from repro.rln.nullifier import external_nullifier, internal_nullifier
from shamir_oracle import reconstruct_secret

P = Fr.MODULUS
A = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF % P
B = 0x0FEDCBA987654321

EXTERNAL_INPUTS = (
    (0, None),
    (P - 1, None),
    (1, "waku"),
    (1 << 40, "rln-relay/v2"),
    (0, ""),
)
SECRETS = (1, P - 1, A)
SHARE_XS = (1, P - 1, B)

#: backend -> external nullifiers of EXTERNAL_INPUTS, internal
#: nullifiers of SECRETS under the third external nullifier, and the
#: ``y`` of ``rln_share(A, e, x)`` for SHARE_XS under the fourth.
VECTORS = {
    "blake2b": (
        (
            0,
            P - 1,
            0x1F4004BD0D58792660055439E9C5D219DC3F82A15C93CEA3FDAB79870B555995,
            0x2CFD230E65461EB267C498B4A78E94F0B73C22C798723436B3CF20D4D7979B22,
            0x0F74128F0EF36753857766A2EBC380CE2717B2F338A257EE38211FCAE24024CB,
        ),
        (
            0x1DAA20D5AB3F2B61682F80E000AD6B0ED94AF5453BDC578ECD901EC735109622,
            0x09F331CEC417A9C7C12B5D938102EBA6883C069EBF16365486E49E7F89580509,
            0x0577BC116B1C5B19FFCDD1224C00381AB80458F19F031A48E1A5CF8CBF001240,
        ),
        (
            0x0E10BCF3F1027389C448E0936F62DDE3DD12BCD11223FEE68184859F23601890,
            0x1657EFFD30552854601FCC5DB1F4BDFA4755F0200F339CF7A2E42751FDF7834E,
            0x0E3E1AA1244F51AFB3C0B3A79DE66FD7BDD53A3CA7C72D7A3C66FBBD36378D97,
        ),
    ),
    "poseidon": (
        (
            0,
            P - 1,
            0x06CD13AEA836E1E3F8D28786C6E9F6E9860D0E05F0DB011CE7EEB0464EB1C3DA,
            0x063CEAEF65489260DF6E557E833C1A3D7ABC2CBEEBB8659E3C884CE4F1C92B2F,
            0x1D984B2A1CC78B232C4695FD76516B8A01DA0C37C80E2443B26E347A20BFC8C4,
        ),
        (
            0x070AB9FD29C9F9B74F474B932EA920026D4AF4C656EC52E5D87B69691BE4553D,
            0x2A8E07F6C18B98DAB09C76CC899C7241BE1B573EC38309E864893CA9FFBD7BF2,
            0x129C163F64BD886BA352532BAA0271DBDD6EE77AD20C9726EF9AA9FE6CFFFAA6,
        ),
        (
            0x0BA10A1C1C757A0B3534F5C20DE3D31A2D078A00363315632B0D7FF33C2E28C5,
            0x18C7A2D504E221D2EF33B72F1373C8C3F76122F0EB24867AF95B2CFDE5297319,
            0x18D1C043AC563F80B535A27C03AE483E939D08A7701AEC49BFED474F7D40B6B1,
        ),
    ),
}

HALF = (P + 1) // 2  # 1/2 in the field

#: ((xa, ya), (xb, yb)) -> A(0) of the line through them. Backend-free:
#: recovery is pure field algebra.
RECOVERY_VECTORS = (
    (((0, 0), (1, 1)), 0),
    (((0, A), (1, B)), A),
    (((1, 0), (P - 1, 1)), HALF),
    (((1, 1), (P - 1, P - 1)), 0),
    (((P - 1, 0), (1, P - 1)), HALF - 1),
    (((A, B), (B, A)), A + B),
    (((1, P - 1), (P - 1, 0)), HALF - 1),
)

canonical = st.integers(min_value=0, max_value=P - 1)


def share(x: int, y: int) -> Share:
    return Share(x=Fr(x), y=Fr(y))


@pytest.fixture(params=sorted(VECTORS))
def backend(request):
    set_hash_backend(request.param)
    return request.param


def test_external_nullifiers_are_pinned(backend):
    pins, _, _ = VECTORS[backend]
    got = tuple(int(external_nullifier(e, d)) for e, d in EXTERNAL_INPUTS)
    assert got == pins


def test_internal_nullifiers_are_pinned(backend):
    exts, pins, _ = VECTORS[backend]
    got = tuple(int(internal_nullifier(Fr(sk), Fr(exts[2]))) for sk in SECRETS)
    assert got == pins


def test_rln_share_ordinates_are_pinned(backend):
    exts, _, pins = VECTORS[backend]
    shares = [rln_share(Fr(A), Fr(exts[3]), Fr(x)) for x in SHARE_XS]
    assert tuple(int(s.y) for s in shares) == pins
    for other in shares[1:]:
        assert recover_secret_from_double_signal(shares[0], other) == Fr(A)


@pytest.mark.parametrize("points,secret", RECOVERY_VECTORS)
def test_recovered_secrets_are_pinned(points, secret):
    (xa, ya), (xb, yb) = points
    assert line_intercept(xa, ya, xb, yb) == secret
    assert line_intercept(xb, yb, xa, ya) == secret
    pair = [share(xa, ya), share(xb, yb)]
    assert recover_secret_from_double_signal(*pair) == Fr(secret)
    assert reconstruct_secret(pair) == Fr(secret)


@settings(max_examples=200, deadline=None)
@given(canonical, canonical, canonical, canonical)
def test_int_native_recovery_equals_the_oracle(xa, ya, xb, yb):
    if xa == xb:
        return
    a, b = share(xa, ya), share(xb, yb)
    expected = reconstruct_secret([a, b])
    line_intercept.cache_clear()
    assert recover_secret_from_double_signal(a, b) == expected  # cold
    assert recover_secret_from_double_signal(a, b) == expected  # warm
    assert recover_secret_from_double_signal(b, a) == expected
    assert line_intercept.cache_info().hits == 1
    line_intercept.cache_clear()
    assert recover_secret_from_double_signal(b, a) == expected
