"""Rank-1 constraint system (R1CS) with assignment-carrying synthesis.

Groth16 — the proof system the paper's RLN library uses — proves
satisfiability of an R1CS: a set of constraints ``<A,w> * <B,w> = <C,w>``
over a witness vector ``w`` whose prefix is public. This module
implements the constraint system itself; the RLN relation is synthesised
from gadgets in :mod:`repro.crypto.zksnark.gadgets` and proved by the
simulated backend in :mod:`repro.crypto.zksnark.groth16`.

Design notes
------------
* Synthesis is *assignment-carrying*: allocating a variable assigns its
  value immediately, so one pass both builds the constraint matrix and
  produces the witness. Provers run this pass; the constraint *shape*
  (for counting and setup) is obtained by synthesising with any valid
  input.
* Linear combinations are first-class (:class:`LinearCombination`), so
  additions, scalings and the Poseidon MDS layers cost **zero**
  constraints, exactly as in real R1CS front-ends (circom, bellman).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ...errors import CircuitError
from ..field import Fr

LCLike = Union["LinearCombination", "Variable", Fr, int]


@dataclass(frozen=True)
class Variable:
    """A wire in the circuit, identified by its witness index."""

    index: int
    name: str = ""

    def lc(self) -> "LinearCombination":
        return LinearCombination({self.index: Fr.one()}, Fr.zero())


class LinearCombination:
    """``sum(coeff_i * w_i) + constant`` over witness variables."""

    __slots__ = ("terms", "constant")

    def __init__(
        self,
        terms: Optional[Dict[int, Fr]] = None,
        constant: Fr = Fr.zero(),
    ) -> None:
        self.terms: Dict[int, Fr] = terms or {}
        self.constant = Fr(constant)

    @staticmethod
    def coerce(value: LCLike) -> "LinearCombination":
        if isinstance(value, LinearCombination):
            return value
        if isinstance(value, Variable):
            return value.lc()
        if isinstance(value, (Fr, int)):
            return LinearCombination({}, Fr(value))
        raise CircuitError(f"cannot use {type(value).__name__} in a constraint")

    def __add__(self, other: LCLike) -> "LinearCombination":
        other = LinearCombination.coerce(other)
        terms = dict(self.terms)
        for index, coeff in other.terms.items():
            merged = terms.get(index, Fr.zero()) + coeff
            if merged.is_zero():
                terms.pop(index, None)
            else:
                terms[index] = merged
        return LinearCombination(terms, self.constant + other.constant)

    __radd__ = __add__

    def __sub__(self, other: LCLike) -> "LinearCombination":
        return self + (LinearCombination.coerce(other) * Fr(-1))

    def __rsub__(self, other: LCLike) -> "LinearCombination":
        return LinearCombination.coerce(other) + (self * Fr(-1))

    def __mul__(self, scalar: Union[Fr, int]) -> "LinearCombination":
        scalar = Fr(scalar)
        if scalar.is_zero():
            return LinearCombination()
        return LinearCombination(
            {i: c * scalar for i, c in self.terms.items()},
            self.constant * scalar,
        )

    __rmul__ = __mul__

    def evaluate(self, assignment: Sequence[Fr]) -> Fr:
        """Value of this combination under a witness assignment."""
        total = int(self.constant)
        for index, coeff in self.terms.items():
            total += int(coeff) * int(assignment[index])
        return Fr(total)


@dataclass(frozen=True)
class Constraint:
    """One rank-1 constraint ``a * b = c``."""

    a: LinearCombination
    b: LinearCombination
    c: LinearCombination
    annotation: str = ""


@dataclass
class ConstraintSystem:
    """Mutable R1CS under construction, with live witness values.

    Witness layout follows Groth16 convention: index 0 is the constant
    ``one`` wire, public inputs come next, private (auxiliary) variables
    after them. Public inputs must therefore be allocated before any
    private variable.
    """

    constraints: List[Constraint] = field(default_factory=list)
    assignment: List[Fr] = field(default_factory=lambda: [Fr.one()])
    public_count: int = 0
    _private_started: bool = field(default=False, repr=False)

    # -- allocation ----------------------------------------------------------

    def alloc_public(self, name: str, value: Fr) -> Variable:
        """Allocate a public-input wire (must precede private wires)."""
        if self._private_started:
            raise CircuitError(
                "public inputs must be allocated before private variables"
            )
        variable = Variable(index=len(self.assignment), name=name)
        self.assignment.append(Fr(value))
        self.public_count += 1
        return variable

    def alloc(self, name: str, value: Fr) -> Variable:
        """Allocate a private (auxiliary) wire carrying ``value``."""
        self._private_started = True
        variable = Variable(index=len(self.assignment), name=name)
        self.assignment.append(Fr(value))
        return variable

    # -- constraint emission ---------------------------------------------------

    def enforce(
        self, a: LCLike, b: LCLike, c: LCLike, annotation: str = ""
    ) -> None:
        """Add the constraint ``a * b = c`` and check it holds now.

        Checking at synthesis time means an inconsistent witness fails
        fast with the offending annotation, instead of surfacing as an
        opaque proving error later.
        """
        constraint = Constraint(
            a=LinearCombination.coerce(a),
            b=LinearCombination.coerce(b),
            c=LinearCombination.coerce(c),
            annotation=annotation,
        )
        lhs = constraint.a.evaluate(self.assignment) * constraint.b.evaluate(
            self.assignment
        )
        rhs = constraint.c.evaluate(self.assignment)
        if lhs != rhs:
            raise CircuitError(
                f"constraint unsatisfied at synthesis: {annotation or '<anon>'}"
            )
        self.constraints.append(constraint)

    def enforce_equal(self, a: LCLike, b: LCLike, annotation: str = "") -> None:
        """``a == b`` as the rank-1 constraint ``(a - b) * 1 = 0``."""
        diff = LinearCombination.coerce(a) - LinearCombination.coerce(b)
        self.enforce(diff, Fr.one(), Fr.zero(), annotation or "equality")

    # -- derived allocation helpers -----------------------------------------------

    def mul(self, a: LCLike, b: LCLike, annotation: str = "") -> Variable:
        """Allocate ``out = a * b`` with its defining constraint."""
        a = LinearCombination.coerce(a)
        b = LinearCombination.coerce(b)
        value = a.evaluate(self.assignment) * b.evaluate(self.assignment)
        out = self.alloc(annotation or "product", value)
        self.enforce(a, b, out, annotation or "product")
        return out

    def square(self, a: LCLike, annotation: str = "") -> Variable:
        return self.mul(a, a, annotation or "square")

    def enforce_boolean(self, variable: LCLike, annotation: str = "") -> None:
        """``v * (1 - v) = 0`` — v is 0 or 1."""
        v = LinearCombination.coerce(variable)
        self.enforce(
            v, LinearCombination.coerce(Fr.one()) - v, Fr.zero(),
            annotation or "boolean",
        )

    # -- inspection --------------------------------------------------------------

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def public_inputs(self) -> Tuple[Fr, ...]:
        """Values of the public-input wires, in allocation order."""
        return tuple(self.assignment[1 : 1 + self.public_count])

    def is_satisfied(self) -> bool:
        """Re-check every constraint against the current assignment."""
        return self.check_assignment(self.assignment)

    def check_assignment(self, assignment: Sequence[Fr]) -> bool:
        """Check every constraint against an arbitrary assignment."""
        if len(assignment) != len(self.assignment):
            return False
        for constraint in self.constraints:
            lhs = constraint.a.evaluate(assignment) * constraint.b.evaluate(
                assignment
            )
            if lhs != constraint.c.evaluate(assignment):
                return False
        return True

    def evaluate(self, lc: LCLike) -> Fr:
        """Value of any linear combination under the live assignment."""
        return LinearCombination.coerce(lc).evaluate(self.assignment)
