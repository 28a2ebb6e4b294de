"""Protocol configuration for a Waku-RLN-Relay deployment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..constants import (
    DEFAULT_EPOCH_LENGTH_SECONDS,
    DEFAULT_MAX_NETWORK_DELAY_SECONDS,
    DEFAULT_MEMBERSHIP_STAKE_WEI,
    DEFAULT_MERKLE_DEPTH,
    DEFAULT_SLASH_BURN_FRACTION,
)
from ..errors import ConfigError
from ..gossipsub.params import GossipSubParams
from ..rln.membership import DEFAULT_ROOT_WINDOW
from ..rln.verifier import DEFAULT_VERIFICATION_CACHE_SIZE


def _in(v, kind, least=0, most=math.inf) -> bool:
    """``v`` is a ``kind`` in ``[least, most]``; NaN and infinities
    never are."""
    return isinstance(v, kind) and least <= v <= most and v < math.inf


@dataclass(frozen=True)
class ProtocolConfig:
    """All tunables of the protocol in one immutable object.

    ``thr`` — the epoch acceptance threshold — is *derived*, not set:
    Section III defines ``Thr = D / T`` where ``D`` is the maximum
    network delay and ``T`` the epoch length, so changing either input
    changes the window consistently.
    """

    #: Epoch length T in seconds.
    epoch_length: float = DEFAULT_EPOCH_LENGTH_SECONDS
    #: Maximum network delay D in seconds.
    max_network_delay: float = DEFAULT_MAX_NETWORK_DELAY_SECONDS
    #: Membership tree depth (group capacity = 2**depth).
    merkle_depth: int = DEFAULT_MERKLE_DEPTH
    #: Stake required to register, in wei.
    stake_wei: int = DEFAULT_MEMBERSHIP_STAKE_WEI
    #: Fraction of a slashed stake that is burnt (rest rewards reporter).
    burn_fraction: float = DEFAULT_SLASH_BURN_FRACTION
    #: Optional RLN application domain bound into external nullifiers.
    domain: Optional[str] = None
    #: How many recent membership roots routers accept.
    root_window: int = DEFAULT_ROOT_WINDOW
    #: How often peers poll the contract event log, in seconds.
    sync_interval: float = 2.0
    #: When True, modeled zkSNARK latencies delay publish/validation in
    #: simulated time (the paper's 0.5 s prove / 30 ms verify figures).
    model_crypto_latency: bool = False
    #: Capacity of the deployment-wide zkSNARK verification cache shared
    #: by all routers (every peer holds the same verifying key, so the
    #: pairing-check outcome for a given (publics, proof) pair is
    #: network-global). 0 disables the cache — every router verifies
    #: every signal itself, the paper's naive per-message cost model.
    verification_cache_size: int = DEFAULT_VERIFICATION_CACHE_SIZE
    #: Shard the deployment's shared canonical membership tree (one
    #: tree per domain that every replica views, see
    #: :class:`~repro.rln.membership.MembershipStore`) into
    #: fixed-capacity sub-trees of this depth under a top-level
    #: root-of-roots (the tree-of-trees registry,
    #: :mod:`repro.crypto.merkle_forest`). Root-equivalent to a plain
    #: tree at matched capacity; enables bulk genesis registration and
    #: lazy sub-tree interiors. None: one sub-tree spanning
    #: ``merkle_depth``. Requires ``0 < sub_depth < merkle_depth``.
    membership_sub_depth: Optional[int] = None
    #: Garbage-collect nullifier buckets on the epoch grid itself
    #: (drop buckets > thr epochs behind the newest *seen* epoch the
    #: moment it appears) instead of waiting for the periodic
    #: housekeeping timer. Bounds per-validator nullifier state to
    #: O(active senders x window) at any instant. Off by default: a
    #: stale signal re-sent before the timer fires classifies as a
    #: duplicate with lazy GC but as epoch-expired with eager GC, so
    #: flipping this is behaviour-visible (and fingerprint-visible).
    eager_nullifier_gc: bool = False
    gossip: GossipSubParams = field(default_factory=GossipSubParams)

    def __post_init__(self) -> None:
        real = (int, float)
        sub = self.membership_sub_depth
        valid = {
            "epoch_length": _in(self.epoch_length, real)
            and self.epoch_length > 0,
            "max_network_delay": _in(self.max_network_delay, real),
            "merkle_depth": _in(self.merkle_depth, int, 1),
            "stake_wei": _in(self.stake_wei, int),
            "burn_fraction": _in(self.burn_fraction, real, most=1),
            "root_window": _in(self.root_window, int, 1),
            "sync_interval": _in(self.sync_interval, real)
            and self.sync_interval > 0,
            "verification_cache_size": _in(self.verification_cache_size, int),
            "membership_sub_depth": sub is None
            or _in(self.merkle_depth, int)
            and _in(sub, int, 1, self.merkle_depth - 1),
        }
        for name, ok in valid.items():
            if not ok:
                raise ConfigError(
                    f"ProtocolConfig.{name} = {getattr(self, name)!r} is out "
                    "of range: need epoch_length, sync_interval > 0; "
                    "max_network_delay >= 0 finite; burn_fraction in [0, 1]; "
                    "integers merkle_depth, root_window >= 1, stake_wei, "
                    "verification_cache_size >= 0 and "
                    "0 < membership_sub_depth < merkle_depth",
                    field=name,
                )

    @property
    def thr(self) -> int:
        """Epoch acceptance threshold ``Thr = ceil(D / T)`` (Section III)."""
        return max(1, math.ceil(self.max_network_delay / self.epoch_length))

    @property
    def group_capacity(self) -> int:
        return 1 << self.merkle_depth
