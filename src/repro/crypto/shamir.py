"""Shamir secret sharing specialised to the RLN rate-limit line.

RLN enforces "one message per epoch" with a degree-1 Shamir polynomial:
for a member with secret ``sk`` and epoch (external nullifier) ``e``, the
line is::

    A(x) = sk + a1 * x        with  a1 = H(sk, e)

Each published message ``m`` reveals the single evaluation
``(x, y) = (H(m), A(H(m)))``. One point reveals nothing about ``sk``
(perfect secrecy of Shamir at threshold 2); two points — i.e. two
*different* messages in the same epoch — determine the line and hence
``sk = A(0)``, enabling anyone to slash the spammer.

Only the threshold-2 line the protocol runs lives here; the general
k-of-n Lagrange survives as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import ShamirError
from .field import Fr
from .hashing import hash2

P = Fr.MODULUS


@dataclass(frozen=True)
class Share:
    """A single evaluation ``(x, A(x))`` of the sharing polynomial."""

    x: Fr
    y: Fr


def rln_line_coefficient(secret: Fr, external_nullifier: Fr) -> Fr:
    """The epoch-bound slope ``a1 = H(sk, e)`` of the RLN line."""
    return hash2(Fr(secret), Fr(external_nullifier))


def rln_share(secret: Fr, external_nullifier: Fr, x: Fr) -> Share:
    """Evaluate the member's RLN line ``sk + a1 * x`` at ``x = H(m)``."""
    x = Fr(x)
    if x.is_zero():
        raise ShamirError("share abscissa x = 0 would leak the secret")
    a1 = rln_line_coefficient(secret, external_nullifier)
    return Share(x=x, y=Fr(secret) + a1 * x)


@lru_cache(maxsize=1024)
def line_intercept(xa: int, ya: int, xb: int, yb: int) -> int:
    """``A(0)`` of the line through two points given as canonical ints:
    two-point Lagrange at zero, ``(ya*xb - yb*xa) / (xb - xa)``.

    Every router that sees a double-signal recovers the same secret from
    the same pair of points, so the result is memoised once per process.
    """
    if xa == xb:
        raise ShamirError(
            "shares have the same x coordinate; not a double-signal"
        )
    return (ya * xb - yb * xa) * pow(xb - xa, -1, P) % P


def recover_secret_from_double_signal(
    share_a: Share, share_b: Share
) -> Fr:
    """Reconstruct ``sk`` from the two shares leaked by double-signaling.

    Raises :class:`ShamirError` when the shares coincide (identical
    message hashes do not constitute a rate violation — it is the same
    signal seen twice).
    """
    xa, ya = share_a.x._value, share_a.y._value
    xb, yb = share_b.x._value, share_b.y._value
    return Fr(line_intercept(xa, ya, xb, yb))
