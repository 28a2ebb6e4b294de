"""Calibrated performance model for zkSNARK operations.

The paper reports (Section IV) measurements from the Rust RLN library on
an iPhone 8: proof generation ≈ 0.5 s for a group of 2**32 members,
constant proof verification ≈ 30 ms, 32 B keys and a 3.89 MB prover key.
Our backend is a simulation, so these latencies cannot be *measured*;
instead this model injects them into the discrete-event simulator so
that system-level results (propagation latency, routing throughput,
device suitability) reflect the paper's constants.

Proving cost in Groth16 is dominated by multi-scalar multiplications
linear in the number of constraints; for the RLN circuit the constraint
count is ``c0 + 245 * depth`` (Merkle levels dominate), so we scale the
paper's 0.5 s figure by constraint count relative to depth 32. Verification
is a fixed pairing product — constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...constants import (
    PAPER_PROOF_GENERATION_DEPTH,
    PAPER_PROOF_GENERATION_SECONDS,
    PAPER_PROOF_VERIFICATION_SECONDS,
)

#: Constraints per Merkle level (boolean + swap + t=3 Poseidon hash).
CONSTRAINTS_PER_MERKLE_LEVEL = 245

#: Depth-independent constraints of the RLN circuit: pk = H1(sk) (216),
#: a1 = H2(sk, e) (243), phi = H1(a1) (216), the share product (1) and
#: the three public-output equality constraints (root, y, phi).
RLN_BASE_CONSTRAINTS = 216 + 243 + 216 + 1 + 3


def rln_constraint_count(depth: int) -> int:
    """Closed-form constraint count of the RLN circuit at ``depth``."""
    return RLN_BASE_CONSTRAINTS + CONSTRAINTS_PER_MERKLE_LEVEL * depth


@dataclass(frozen=True)
class PerformanceModel:
    """Modeled zkSNARK latencies, calibrated to the paper's numbers.

    ``device_speed`` rescales all costs relative to the paper's iPhone 8
    reference device (2.0 means twice as fast). Used by benchmarks to
    model desktops vs phones.
    """

    reference_prove_seconds: float = PAPER_PROOF_GENERATION_SECONDS
    reference_depth: int = PAPER_PROOF_GENERATION_DEPTH
    verify_seconds: float = PAPER_PROOF_VERIFICATION_SECONDS
    device_speed: float = 1.0

    def prove_seconds(self, depth: int) -> float:
        """Modeled proof-generation latency for a depth-``depth`` tree."""
        scale = rln_constraint_count(depth) / rln_constraint_count(
            self.reference_depth
        )
        return self.reference_prove_seconds * scale / self.device_speed

    def verify_seconds_for(self, depth: int) -> float:
        """Modeled verification latency — constant in ``depth`` by design."""
        del depth  # verification cost does not depend on the group size
        return self.verify_seconds / self.device_speed


#: Shared default model (iPhone 8 calibration).
DEFAULT_PERFORMANCE_MODEL = PerformanceModel()
