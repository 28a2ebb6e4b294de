"""Fuzz tests for Shamir share recovery on the RLN rate-limit line.

Random secrets and epochs: two distinct shares always determine the
exact secret; one share (or two copies of it) never does.
"""

from __future__ import annotations

import random

import pytest

from repro.constants import BN254_SCALAR_FIELD
from repro.crypto.field import Fr
from repro.crypto.shamir import (
    Share,
    recover_secret_from_double_signal,
    rln_line_coefficient,
    rln_share,
)
from repro.errors import ShamirError
from shamir_oracle import evaluate_polynomial, make_shares, reconstruct_secret


def random_fr(rng: random.Random) -> Fr:
    return Fr(rng.randrange(1, BN254_SCALAR_FIELD))


@pytest.mark.parametrize("seed", range(20))
def test_two_distinct_shares_recover_exact_secret(seed):
    rng = random.Random(seed)
    secret = random_fr(rng)
    ext = random_fr(rng)
    x1, x2 = random_fr(rng), random_fr(rng)
    if x1 == x2:  # astronomically unlikely; regenerate deterministically
        x2 = x2 + Fr.one()
    share_a = rln_share(secret, ext, x1)
    share_b = rln_share(secret, ext, x2)
    assert recover_secret_from_double_signal(share_a, share_b) == secret
    # Order of shares is irrelevant.
    assert recover_secret_from_double_signal(share_b, share_a) == secret


@pytest.mark.parametrize("seed", range(10))
def test_identical_share_abscissae_never_recover(seed):
    rng = random.Random(100 + seed)
    secret, ext, x = random_fr(rng), random_fr(rng), random_fr(rng)
    share = rln_share(secret, ext, x)
    for _ in range(2):  # recovery is memoised; a refusal never is
        with pytest.raises(ShamirError):
            recover_secret_from_double_signal(share, share)
        # Same x with a tampered y is still refused: not a double-signal.
        with pytest.raises(ShamirError):
            recover_secret_from_double_signal(
                share, Share(x=share.x, y=share.y + Fr.one())
            )


@pytest.mark.parametrize("seed", range(10))
def test_one_share_is_consistent_with_any_candidate_secret(seed):
    """Perfect secrecy at threshold 2, concretely: for any candidate
    secret there is a slope making one observed share consistent with
    it — so a single share pins down nothing."""
    rng = random.Random(200 + seed)
    secret, ext, x = random_fr(rng), random_fr(rng), random_fr(rng)
    observed = rln_share(secret, ext, x)
    for _ in range(10):
        candidate = random_fr(rng)
        slope = (observed.y - candidate) / observed.x
        assert evaluate_polynomial([candidate, slope], observed.x) == observed.y


@pytest.mark.parametrize("seed", range(10))
def test_wrong_second_point_recovers_wrong_secret(seed):
    """A forged second share yields garbage, not the member's secret."""
    rng = random.Random(300 + seed)
    secret, ext = random_fr(rng), random_fr(rng)
    genuine = rln_share(secret, ext, random_fr(rng))
    forged = Share(x=genuine.x + Fr.one(), y=random_fr(rng))
    recovered = recover_secret_from_double_signal(genuine, forged)
    assert recovered != secret


@pytest.mark.parametrize("seed", range(5))
def test_general_k_of_n_reconstruction(seed):
    rng = random.Random(400 + seed)
    k = rng.randint(2, 5)
    secret = random_fr(rng)
    coefficients = [random_fr(rng) for _ in range(k - 1)]
    xs = []
    while len(xs) < k + 3:
        x = random_fr(rng)
        if x not in xs:
            xs.append(x)
    shares = make_shares(secret, coefficients, xs)
    subset = rng.sample(shares, k)
    assert reconstruct_secret(subset) == secret


def test_share_at_zero_refused():
    with pytest.raises(ShamirError):
        rln_share(Fr(5), Fr(3), Fr.zero())


def test_rln_slope_is_epoch_bound():
    secret = Fr(1234)
    assert rln_line_coefficient(secret, Fr(1)) != rln_line_coefficient(
        secret, Fr(2)
    )
