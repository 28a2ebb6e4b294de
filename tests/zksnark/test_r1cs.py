"""Tests for the R1CS constraint system."""

import pytest

from repro.crypto.field import Fr
from repro.crypto.zksnark.r1cs import ConstraintSystem, LinearCombination, Variable
from repro.errors import CircuitError


class TestLinearCombination:
    def test_coerce_variable(self):
        v = Variable(index=3)
        lc = LinearCombination.coerce(v)
        assert lc.terms == {3: Fr.one()}

    def test_coerce_constant(self):
        lc = LinearCombination.coerce(7)
        assert not lc.terms
        assert lc.constant == Fr(7)

    def test_coerce_rejects_junk(self):
        with pytest.raises(CircuitError):
            LinearCombination.coerce("x")  # type: ignore[arg-type]

    def test_add_merges_terms(self):
        a = Variable(index=1).lc()
        b = Variable(index=1).lc()
        merged = a + b
        assert merged.terms == {1: Fr(2)}

    def test_cancellation_drops_term(self):
        a = Variable(index=1).lc()
        zero = a - a
        assert not zero.terms
        assert zero.constant == Fr.zero()

    def test_scalar_multiplication(self):
        a = Variable(index=2).lc() + Fr(3)
        scaled = a * Fr(5)
        assert scaled.terms == {2: Fr(5)}
        assert scaled.constant == Fr(15)

    def test_mul_by_zero_is_empty(self):
        a = Variable(index=2).lc() + Fr(3)
        assert not (a * 0).terms

    def test_evaluate(self):
        assignment = [Fr.one(), Fr(10), Fr(20)]
        lc = Variable(index=1).lc() * 2 + Variable(index=2).lc() + Fr(5)
        assert lc.evaluate(assignment) == Fr(45)


class TestConstraintSystem:
    def test_constant_one_wire(self):
        cs = ConstraintSystem()
        assert cs.assignment[0] == Fr.one()
        assert len(cs.assignment) == 1

    def test_public_before_private_enforced(self):
        cs = ConstraintSystem()
        cs.alloc("private", Fr(1))
        with pytest.raises(CircuitError):
            cs.alloc_public("late_public", Fr(2))

    def test_public_inputs_extraction(self):
        cs = ConstraintSystem()
        cs.alloc_public("a", Fr(10))
        cs.alloc_public("b", Fr(20))
        cs.alloc("w", Fr(30))
        assert cs.public_inputs() == (Fr(10), Fr(20))

    def test_enforce_checks_at_synthesis(self):
        cs = ConstraintSystem()
        a = cs.alloc("a", Fr(3))
        b = cs.alloc("b", Fr(4))
        cs.enforce(a, b, Fr(12), "3*4=12")
        with pytest.raises(CircuitError):
            cs.enforce(a, b, Fr(13), "3*4!=13")

    def test_mul_allocates_product(self):
        cs = ConstraintSystem()
        a = cs.alloc("a", Fr(6))
        b = cs.alloc("b", Fr(7))
        out = cs.mul(a, b)
        assert cs.evaluate(out) == Fr(42)
        assert cs.num_constraints == 1

    def test_square(self):
        cs = ConstraintSystem()
        a = cs.alloc("a", Fr(9))
        assert cs.evaluate(cs.square(a)) == Fr(81)

    def test_enforce_equal(self):
        cs = ConstraintSystem()
        a = cs.alloc("a", Fr(5))
        cs.enforce_equal(a, Fr(5))
        with pytest.raises(CircuitError):
            cs.enforce_equal(a, Fr(6))

    def test_boolean_constraint(self):
        cs = ConstraintSystem()
        good = cs.alloc("bit", Fr(1))
        cs.enforce_boolean(good)
        bad = cs.alloc("nonbit", Fr(2))
        with pytest.raises(CircuitError):
            cs.enforce_boolean(bad)

    def test_is_satisfied(self):
        cs = ConstraintSystem()
        a = cs.alloc("a", Fr(2))
        cs.mul(a, a)
        assert cs.is_satisfied()

    def test_check_assignment_rejects_tampering(self):
        cs = ConstraintSystem()
        a = cs.alloc("a", Fr(2))
        cs.mul(a, a, "a^2")
        tampered = list(cs.assignment)
        tampered[-1] = Fr(5)  # claim a^2 = 5
        assert not cs.check_assignment(tampered)

    def test_check_assignment_rejects_wrong_length(self):
        cs = ConstraintSystem()
        cs.alloc("a", Fr(2))
        assert not cs.check_assignment([Fr.one()])

    def test_linear_ops_cost_no_constraints(self):
        cs = ConstraintSystem()
        a = cs.alloc("a", Fr(1))
        b = cs.alloc("b", Fr(2))
        _ = a.lc() + b.lc() * 3 - Fr(4)
        assert cs.num_constraints == 0
