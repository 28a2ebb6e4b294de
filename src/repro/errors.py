"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while the
sub-classes keep failures diagnosable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class FieldError(ReproError):
    """Invalid prime-field operation (bad element, division by zero, ...)."""


class SerializationError(ReproError):
    """A value could not be encoded to, or decoded from, bytes."""


class MerkleError(ReproError):
    """Invalid Merkle-tree operation (tree full, bad index, bad proof)."""


class ShamirError(ReproError):
    """Invalid secret-sharing operation (duplicate share x, bad degree)."""


class CircuitError(ReproError):
    """R1CS construction or witness-generation failure."""


class ProofError(ReproError):
    """zkSNARK proving failed (unsatisfied constraints, bad witness)."""


class VerificationError(ReproError):
    """zkSNARK or signal verification failed."""


class ContractError(ReproError):
    """Smart-contract call reverted."""


class MemberNotFoundError(ContractError):
    """A slashing or lookup call referenced an unknown member."""


class ChainError(ReproError):
    """Blockchain simulation failure (unknown account, bad nonce, ...)."""


class SimulationError(ReproError):
    """Discrete-event simulator misuse (time going backwards, ...)."""


class NetworkError(ReproError):
    """Network-layer failure (unknown node, no link, ...)."""


class GossipError(ReproError):
    """GossipSub router misuse (unknown topic, not subscribed, ...)."""


class RateLimitError(ReproError):
    """A local publisher attempted to exceed its own rate limit."""

    def __init__(self, epoch: int) -> None:
        super().__init__(f"already published one message in epoch {epoch}")
        self.epoch = epoch


class RegistrationError(ReproError):
    """Peer registration with the membership group failed."""


class SyncError(ReproError):
    """Local membership tree is out of sync with the contract."""


class ConfigError(ReproError):
    """A :class:`~repro.core.config.ProtocolConfig` field is out of range;
    ``field`` names it."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


class ScenarioError(ReproError):
    """Invalid scenario specification or unknown scenario name."""


class ScenarioSpecError(ScenarioError):
    """A scenario spec field is invalid for the requested execution mode.

    Carries the full list of offending fields so a CLI can show every
    problem at once instead of failing on the first.
    """

    def __init__(self, message: str, problems=()):
        super().__init__(message)
        self.problems = tuple(problems)
