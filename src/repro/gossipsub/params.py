"""GossipSub protocol parameters (libp2p gossipsub v1.1 defaults).

Names follow the specification; values are the spec defaults scaled to
simulation time (seconds).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GossipError


@dataclass(frozen=True)
class GossipSubParams:
    """Router-level knobs, checked on construction."""

    #: Target mesh degree and its acceptable bounds.
    d: int = 6
    d_lo: int = 4
    d_hi: int = 12
    #: Peers with score above the median kept during oversubscription prune.
    d_score: int = 4
    #: Lazy-gossip degree: how many non-mesh peers receive IHAVE per topic.
    d_lazy: int = 6
    heartbeat_interval: float = 1.0
    #: Message-cache history length and gossip window, in heartbeats.
    mcache_len: int = 5
    mcache_gossip: int = 3
    #: How long message IDs stay in the seen cache (seconds).
    seen_ttl: float = 120.0
    #: How long fanout state for an unsubscribed topic is kept (seconds).
    fanout_ttl: float = 60.0
    #: Backoff a peer must respect after being PRUNEd from a mesh (seconds).
    prune_backoff: float = 60.0
    #: Maximum IWANT requests sent per received IHAVE.
    max_iwant_per_heartbeat: int = 5000
    #: When True, publishers send their own messages to every known
    #: topic peer above the publish threshold, not only the mesh.
    flood_publish: bool = True
    #: Peers grafted per opportunistic-graft round when the mesh's
    #: median score is below the threshold.
    opportunistic_graft_peers: int = 2
    #: Max peers offered/accepted via Peer Exchange on PRUNE.
    px_peers: int = 16
    #: Every how many heartbeats the router runs the full-sweep round:
    #: opportunistic grafting plus a self-healing maintenance pass over
    #: *every* subscribed topic (other heartbeats maintain only topics
    #: marked dirty by an actual change).
    full_sweep_interval: int = 30

    def __post_init__(self) -> None:
        valid = {
            "seen_ttl": self.seen_ttl > 0,
            "mcache_len": self.mcache_len >= 1,
            "mcache_gossip": 0 <= self.mcache_gossip <= self.mcache_len,
            "heartbeat_interval": self.heartbeat_interval > 0,
            "max_iwant_per_heartbeat": self.max_iwant_per_heartbeat >= 0,
        }
        for field, ok in valid.items():
            if not ok:
                raise GossipError(
                    f"GossipSubParams.{field} = {getattr(self, field)!r} is "
                    "out of range: need seen_ttl > 0, mcache_len >= 1, "
                    "0 <= mcache_gossip <= mcache_len, heartbeat_interval > 0, "
                    "max_iwant_per_heartbeat >= 0"
                )
