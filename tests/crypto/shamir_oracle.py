"""Reference k-of-n Shamir sharing over ``Fr`` objects.

The protocol only ever recovers a secret from two points of the RLN
line, and does so with one int-native inversion
(:func:`repro.crypto.shamir.line_intercept`). This is the general
Lagrange interpolation at zero it must agree with, kept here as the
plainest statement of the algebra.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.crypto.field import Fr
from repro.crypto.shamir import Share
from repro.errors import ShamirError


def evaluate_polynomial(coefficients: Sequence[Fr], x: Fr) -> Fr:
    """Horner evaluation; ``coefficients[0]`` is the constant term."""
    result = Fr.zero()
    for coefficient in reversed(coefficients):
        result = result * x + coefficient
    return result


def make_shares(
    secret: Fr, coefficients: Sequence[Fr], xs: Iterable[Fr]
) -> List[Share]:
    """Share ``secret`` with the given higher-order coefficients.

    The polynomial is ``secret + coefficients[0]*x + coefficients[1]*x^2 ...``.
    """
    poly = [Fr(secret), *[Fr(c) for c in coefficients]]
    shares = []
    for x in xs:
        x = Fr(x)
        if x.is_zero():
            raise ShamirError("share abscissa x = 0 would leak the secret")
        shares.append(Share(x=x, y=evaluate_polynomial(poly, x)))
    return shares


def reconstruct_secret(shares: Sequence[Share]) -> Fr:
    """Lagrange-interpolate the polynomial at zero from ``k`` shares.

    The caller must supply exactly as many shares as the polynomial has
    coefficients (k = degree + 1); for RLN that is two.
    """
    if len(shares) < 2:
        raise ShamirError("need at least two shares to reconstruct")
    xs = [int(s.x) for s in shares]
    if len(set(xs)) != len(xs):
        raise ShamirError("shares must have pairwise distinct x coordinates")
    secret = Fr.zero()
    for i, share_i in enumerate(shares):
        numerator = Fr.one()
        denominator = Fr.one()
        for j, share_j in enumerate(shares):
            if i == j:
                continue
            numerator = numerator * share_j.x
            denominator = denominator * (share_j.x - share_i.x)
        secret = secret + share_i.y * (numerator / denominator)
    return secret
