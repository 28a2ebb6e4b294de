"""Tests for the calibrated zkSNARK performance model."""

from dataclasses import replace

import pytest

from repro.constants import (
    PAPER_PROOF_GENERATION_SECONDS,
    PAPER_PROOF_VERIFICATION_SECONDS,
)
from repro.crypto.zksnark.timing import (
    CONSTRAINTS_PER_MERKLE_LEVEL,
    DEFAULT_PERFORMANCE_MODEL,
    PerformanceModel,
    RLN_BASE_CONSTRAINTS,
    rln_constraint_count,
)


class TestConstraintModel:
    def test_linear_in_depth(self):
        assert (
            rln_constraint_count(21) - rln_constraint_count(20)
            == CONSTRAINTS_PER_MERKLE_LEVEL
        )

    def test_base_offset(self):
        assert rln_constraint_count(0) == RLN_BASE_CONSTRAINTS

    def test_matches_real_synthesis(self, poseidon_backend, rng):
        """The closed-form count equals the synthesized circuit's."""
        from repro.crypto.field import Fr
        from repro.crypto.keys import MembershipKeyPair
        from repro.crypto.merkle import MerkleTree
        from repro.rln.circuit import RlnStatement

        tree = MerkleTree(6)
        pair = MembershipKeyPair.generate(rng)
        index = tree.insert(pair.commitment.element)
        statement = RlnStatement.build(
            secret=pair.secret.element,
            ext_nullifier=Fr(1),
            x=Fr(2),
            merkle_proof=tree.proof(index),
        )
        assert statement.synthesize().num_constraints == rln_constraint_count(6)


class TestPerformanceModel:
    def test_anchored_at_paper_depth(self):
        model = PerformanceModel()
        assert model.prove_seconds(32) == pytest.approx(
            PAPER_PROOF_GENERATION_SECONDS
        )

    def test_prove_monotone_in_depth(self):
        model = PerformanceModel()
        times = [model.prove_seconds(d) for d in (10, 16, 20, 26, 32)]
        assert times == sorted(times)

    def test_verify_constant(self):
        model = PerformanceModel()
        assert model.verify_seconds_for(10) == model.verify_seconds_for(32)
        assert model.verify_seconds_for(20) == pytest.approx(
            PAPER_PROOF_VERIFICATION_SECONDS
        )

    def test_device_speed_scales_everything(self):
        fast = replace(DEFAULT_PERFORMANCE_MODEL, device_speed=2.0)
        assert fast.prove_seconds(32) == pytest.approx(0.25)
        assert fast.verify_seconds_for(32) == pytest.approx(0.015)

    def test_default_model_is_reference_device(self):
        assert DEFAULT_PERFORMANCE_MODEL.device_speed == 1.0
