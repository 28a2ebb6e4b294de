"""Tests for Shamir sharing and the RLN rate-limit line."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import Fr
from repro.crypto.shamir import (
    Share,
    recover_secret_from_double_signal,
    rln_line_coefficient,
    rln_share,
)
from repro.errors import ShamirError
from shamir_oracle import evaluate_polynomial, make_shares, reconstruct_secret

fr_values = st.integers(min_value=0, max_value=Fr.MODULUS - 1).map(Fr)
nonzero_fr = st.integers(min_value=1, max_value=Fr.MODULUS - 1).map(Fr)


class TestPolynomial:
    def test_constant(self):
        assert evaluate_polynomial([Fr(7)], Fr(100)) == Fr(7)

    def test_line(self):
        # 3 + 2x at x=5 -> 13
        assert evaluate_polynomial([Fr(3), Fr(2)], Fr(5)) == Fr(13)

    def test_quadratic(self):
        # 1 + 2x + 3x^2 at x=2 -> 17
        assert evaluate_polynomial([Fr(1), Fr(2), Fr(3)], Fr(2)) == Fr(17)

    def test_empty_polynomial_is_zero(self):
        assert evaluate_polynomial([], Fr(9)) == Fr.zero()


class TestSharing:
    def test_two_of_two_reconstruction(self):
        secret = Fr(123456789)
        shares = make_shares(secret, [Fr(42)], [Fr(1), Fr(2)])
        assert reconstruct_secret(shares) == secret

    def test_three_of_three_reconstruction(self):
        secret = Fr(555)
        shares = make_shares(secret, [Fr(7), Fr(11)], [Fr(1), Fr(2), Fr(3)])
        assert reconstruct_secret(shares) == secret

    def test_share_at_zero_rejected(self):
        with pytest.raises(ShamirError):
            make_shares(Fr(1), [Fr(2)], [Fr.zero()])

    def test_single_share_rejected(self):
        with pytest.raises(ShamirError):
            reconstruct_secret([Share(Fr(1), Fr(2))])

    def test_duplicate_x_rejected(self):
        shares = [Share(Fr(1), Fr(2)), Share(Fr(1), Fr(3))]
        with pytest.raises(ShamirError):
            reconstruct_secret(shares)

    def test_one_share_is_not_the_secret(self):
        # Perfect secrecy sanity check: the share value differs from sk
        # for a non-degenerate line.
        secret = Fr(99)
        share = make_shares(secret, [Fr(1)], [Fr(5)])[0]
        assert share.y != secret

    @settings(max_examples=30)
    @given(fr_values, nonzero_fr, nonzero_fr, nonzero_fr)
    def test_reconstruction_property(self, secret, a1, x1, x2):
        if x1 == x2:
            return
        shares = make_shares(secret, [a1], [x1, x2])
        assert reconstruct_secret(shares) == secret


class TestRlnLine:
    def test_coefficient_binds_epoch(self):
        sk = Fr(1234)
        assert rln_line_coefficient(sk, Fr(1)) != rln_line_coefficient(sk, Fr(2))

    def test_coefficient_binds_secret(self):
        e = Fr(10)
        assert rln_line_coefficient(Fr(1), e) != rln_line_coefficient(Fr(2), e)

    def test_double_signal_recovers_secret(self):
        sk, e = Fr(777), Fr(42)
        share_a = rln_share(sk, e, Fr(1001))
        share_b = rln_share(sk, e, Fr(2002))
        assert recover_secret_from_double_signal(share_a, share_b) == sk

    def test_duplicate_signal_does_not_slash(self):
        sk, e = Fr(777), Fr(42)
        share = rln_share(sk, e, Fr(1001))
        with pytest.raises(ShamirError):
            recover_secret_from_double_signal(share, share)

    def test_cross_epoch_shares_do_not_recover(self):
        sk = Fr(777)
        share_a = rln_share(sk, Fr(1), Fr(1001))
        share_b = rln_share(sk, Fr(2), Fr(2002))
        # Shares from different epochs lie on different lines; naive
        # interpolation yields garbage, not sk.
        recovered = recover_secret_from_double_signal(share_a, share_b)
        assert recovered != sk

    @settings(max_examples=30)
    @given(fr_values, fr_values, nonzero_fr, nonzero_fr)
    def test_rln_recovery_property(self, sk, epoch, x1, x2):
        if x1 == x2:
            return
        share_a = rln_share(sk, epoch, x1)
        share_b = rln_share(sk, epoch, x2)
        assert recover_secret_from_double_signal(share_a, share_b) == sk
