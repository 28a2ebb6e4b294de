"""Comparison baselines: PoW, peer-scoring-only, on-chain messaging,
and the flooders that attack them."""

from .onchain_messaging import (
    MessageBoardContract,
    OnChainDelivery,
    OnChainMessagingSystem,
)
from .pow import (
    ATTACKER_RIG,
    DESKTOP,
    IOT_DEVICE,
    PHONE,
    DeviceProfile,
    PowEnvelope,
    leading_zero_bits,
    mine_envelope,
    verify_envelope,
)
from .relay_baselines import (
    BaselineNetwork,
    FloodSpammer,
    PowRelayNetwork,
    PowSpammer,
    SybilArmy,
    scoring_network,
)

__all__ = [
    "PowEnvelope",
    "mine_envelope",
    "verify_envelope",
    "leading_zero_bits",
    "DeviceProfile",
    "DESKTOP",
    "PHONE",
    "IOT_DEVICE",
    "ATTACKER_RIG",
    "BaselineNetwork",
    "PowRelayNetwork",
    "scoring_network",
    "FloodSpammer",
    "PowSpammer",
    "SybilArmy",
    "MessageBoardContract",
    "OnChainMessagingSystem",
    "OnChainDelivery",
]
