"""Baseline relay networks: PoW-protected, score-only, unprotected,
and the flooders that attack them.

These harnesses mirror :class:`~repro.core.protocol.WakuRlnRelayNetwork`
closely enough that the spam experiments (E7/E8) can run the *same*
attack against all four systems and compare outcomes. The RLN side of
that comparison is a scenario's ``burst-flood`` adversary group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..gossipsub.params import GossipSubParams
from ..gossipsub.router import ValidationResult
from ..gossipsub.score import PeerScoreParams, strict_topic_params
from ..net.network import Network
from ..net.topology import connect_full_mesh, connect_random_regular
from ..sim.latency import LatencyModel, UniformLatency
from ..sim.simulator import Simulator
from ..waku.message import WakuMessage
from ..waku.relay import WakuRelayNode
from .pow import (
    ATTACKER_RIG,
    PHONE,
    DeviceProfile,
    PowEnvelope,
    mine_envelope,
    verify_envelope,
)


@dataclass
class BaselineNetwork:
    """A network of plain Waku-Relay nodes (no spam protection)."""

    peer_count: int
    seed: int = 0
    degree: Optional[int] = 6
    latency: Optional[LatencyModel] = None
    gossip: Optional[GossipSubParams] = None
    score_params: Optional[PeerScoreParams] = None

    def __post_init__(self) -> None:
        self.simulator = Simulator(seed=self.seed)
        self.network = Network(
            simulator=self.simulator,
            latency=self.latency or UniformLatency(base_seconds=0.03),
        )
        self.metrics = self.network.metrics
        self.nodes: List[WakuRelayNode] = [
            self._make_node(f"peer-{i}") for i in range(self.peer_count)
        ]
        ids = [n.node_id for n in self.nodes]
        if self.degree is None or self.peer_count <= self.degree + 1:
            connect_full_mesh(self.network, ids)
        else:
            degree = self.degree
            if (self.peer_count * degree) % 2:
                degree += 1
            connect_random_regular(self.network, ids, degree, seed=self.seed)

    def _make_node(self, node_id: str) -> WakuRelayNode:
        return WakuRelayNode(
            node_id,
            self.network,
            gossip_params=self.gossip,
            score_params=self.score_params,
        )

    def add_node(self, node_id: str, connect_to: List[str]) -> WakuRelayNode:
        """Attach an extra node (e.g. a Sybil bot) to the overlay.

        Both sides exchange subscription announcements, as real libp2p
        peers do on connection establishment.
        """
        node = self._make_node(node_id)
        by_id = {n.node_id: n for n in self.nodes}
        for peer in connect_to:
            self.network.connect(node_id, peer)
        node.start()
        for peer in connect_to:
            existing = by_id.get(peer)
            if existing is not None:
                existing.router.announce_to(node_id)
        self.nodes.append(node)
        return node

    def start(self) -> None:
        for node in self.nodes:
            node.start()

    def run(self, duration: float) -> None:
        self.simulator.run_for(duration)

    def collect_deliveries(self) -> Dict[str, List[bytes]]:
        deliveries: Dict[str, List[bytes]] = {n.node_id: [] for n in self.nodes}
        for node in self.nodes:
            node.on_message(
                lambda msg, _mid, nid=node.node_id: deliveries[nid].append(
                    msg.payload
                )
            )
        return deliveries

    def spam_reach(
        self, duration: float, arm: Callable[[], Set[str]]
    ) -> Tuple[int, float]:
        """Start the network and let ``arm`` schedule a flood 2 s in;
        ``arm`` returns the attacking node ids. After ``duration``
        more seconds, returns the spam (payloads containing ``SPAM``:
        PoW envelopes frame it) the other nodes received, in total and
        per node."""
        deliveries = self.collect_deliveries()
        self.start()
        self.run(2.0)
        attackers = arm()
        self.run(duration)
        counts = [
            sum(1 for m in msgs if b"SPAM" in m)
            for nid, msgs in deliveries.items()
            if nid not in attackers
        ]
        total = sum(counts)
        return total, (total / len(counts) if counts else 0.0)


@dataclass
class PowRelayNetwork(BaselineNetwork):
    """Waku-Relay + Whisper PoW admission (the paper's PoW baseline).

    Every router checks the envelope's work; publishing costs the
    device's expected mining time in *simulated* seconds (the nonce
    search itself runs with a low real difficulty so tests stay fast,
    while the reported latency uses the modeled difficulty).
    """

    difficulty_bits: int = 18
    #: Difficulty actually mined in-process (kept small for speed);
    #: verification checks this real difficulty.
    mining_bits: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        for node in self.nodes:
            node.add_validator(self._pow_validator)

    def _pow_validator(self, message: WakuMessage) -> ValidationResult:
        try:
            envelope = PowEnvelope.from_bytes(message.payload)
        except Exception:
            return ValidationResult.REJECT
        if not verify_envelope(envelope, self.mining_bits):
            return ValidationResult.REJECT
        return ValidationResult.ACCEPT

    def publish_with_pow(
        self,
        node: WakuRelayNode,
        payload: bytes,
        device: DeviceProfile = PHONE,
    ) -> float:
        """Mine and publish after the device's modeled mining delay.

        Returns the modeled mining time in seconds.
        """
        envelope, _ = mine_envelope(
            payload, self.mining_bits, rng=self.simulator.rng
        )
        delay = device.expected_mining_seconds(self.difficulty_bits)
        message = WakuMessage(payload=envelope.to_bytes())
        self.simulator.schedule(
            delay, lambda _sim: node.publish(message), label="pow-publish"
        )
        return delay


def scoring_network(
    peer_count: int,
    seed: int = 0,
    degree: Optional[int] = 6,
    expected_rate: float = 1.0,
) -> BaselineNetwork:
    """A relay network defended *only* by gossipsub v1.1 peer scoring.

    This is the paper's second baseline: scoring punishes misbehaving
    *connections*, not identities, so a Sybil attacker simply shows up
    with fresh bots.
    """
    params = PeerScoreParams(
        default_topic_params=strict_topic_params(expected_rate),
    )
    return BaselineNetwork(
        peer_count=peer_count, seed=seed, degree=degree, score_params=params
    )


@dataclass
class FloodSpammer:
    """A flooding publisher for the unprotected / scoring baselines."""

    network: BaselineNetwork
    node_id: str
    rate_per_second: float = 10.0
    sent: int = 0

    def run(
        self, duration: float, marker: bytes = b"SPAM", start: float = 0.0
    ) -> None:
        """Schedule one ``<marker>|<seq>`` message every ``1 / rate``
        seconds for ``duration`` seconds, ``start`` seconds from now."""
        node = next(n for n in self.network.nodes if n.node_id == self.node_id)
        interval = 1.0 / self.rate_per_second
        for k in range(int(duration / interval)):
            self.network.simulator.schedule(
                start + k * interval,
                lambda _sim, data=marker + f"|{k}".encode(): self._send(
                    node, data
                ),
            )

    def _send(self, node: WakuRelayNode, payload: bytes) -> None:
        node.publish(WakuMessage(payload=payload))
        self.sent += 1


@dataclass
class PowSpammer(FloodSpammer):
    """A flooding attacker with serious mining hardware (PoW baseline).

    It floods at its rig's sustainable rate, bounded only by the hash
    rate: ``rate = hash_rate / 2^difficulty`` — far above any honest
    phone.
    """

    network: PowRelayNetwork
    rate_per_second: float = field(init=False, default=0.0)
    device: DeviceProfile = ATTACKER_RIG

    def __post_init__(self) -> None:
        self.rate_per_second = self.sustainable_rate

    @property
    def sustainable_rate(self) -> float:
        return self.device.hash_rate / (2.0 ** self.network.difficulty_bits)

    def _send(self, node: WakuRelayNode, payload: bytes) -> None:
        self.network.publish_with_pow(node, payload, self.device)
        self.sent += 1


@dataclass
class SybilArmy:
    """Bot swarm for the peer-scoring baseline.

    Scoring penalises a *connection*; a Sybil attacker spins up fresh
    bot identities (optionally sharing one IP) and keeps flooding from
    new nodes as old ones get graylisted — the "inexpensive attack"
    of Section I.
    """

    network: BaselineNetwork
    bot_count: int = 10
    attach_degree: int = 3
    rate_per_bot: float = 5.0
    shared_ip: Optional[str] = "203.0.113.7"
    bots: List[str] = field(default_factory=list)

    def deploy(self) -> None:
        rng = self.network.simulator.rng
        honest_ids = [n.node_id for n in self.network.nodes]
        for b in range(self.bot_count):
            bot_id = f"sybil-{b}"
            neighbors = rng.sample(
                honest_ids, min(self.attach_degree, len(honest_ids))
            )
            self.network.add_node(bot_id, neighbors)
            self.bots.append(bot_id)
            if self.shared_ip is not None:
                for honest in self.network.nodes:
                    honest.router.scores.set_ip(bot_id, self.shared_ip)

    def run(self, duration: float, marker: bytes = b"SPAM") -> None:
        """Flood from every bot, each a millisecond after the last."""
        for b, bot_id in enumerate(self.bots):
            FloodSpammer(self.network, bot_id, self.rate_per_bot).run(
                duration, marker + f"|{b}".encode(), start=0.001 * b
            )
