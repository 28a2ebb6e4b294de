"""Network-size scaling: propagation latency and coverage vs peers.

Gossip propagation grows with the overlay diameter — O(log N) hops for
random-regular meshes — so doubling the network should cost roughly one
extra hop of latency, not double. This sweep backs the paper's
implicit scalability story (a routing protocol for open, large p2p
networks).

:func:`propagation_run` is the one propagation measurement the latency
experiments share (E6, the gossip ablations and this sweep).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..constants import ETH_BLOCK_INTERVAL_SECONDS
from ..errors import RateLimitError, RegistrationError
from ..net.topology import diameter
from ..scenarios import ScenarioRunner, ScenarioSpec, TrafficModel
from ..sim.metrics import Histogram

Headers = Sequence[str]
Rows = List[Sequence]

#: Simulated seconds the overlay runs before the first publish.
WARM_UP = 5.0


def propagation_run(
    name: str,
    peers: int,
    seed: int,
    messages: int,
    offset: float,
    tail: float = 30.0,
    block_interval: float = ETH_BLOCK_INTERVAL_SECONDS,
    **config_overrides,
) -> Tuple[Histogram, ScenarioRunner]:
    """Time every delivery (local ones included) of ``messages``
    publishes on a quiet degree-6 overlay: message ``m`` (payload
    ``<name>-<m>``) leaves a seeded random peer :data:`WARM_UP` s plus
    ``m`` epochs plus ``offset`` s in, and the run ends ``tail`` s after
    the last epoch. Returns the latencies and the finished runner."""
    spec = ScenarioSpec(
        name=name,
        description="one publish per epoch, every delivery timed",
        peers=peers,
        seed=seed,
        block_interval=block_interval,
        traffic=TrafficModel(messages_per_epoch=0),
        config_overrides=config_overrides,
    )
    epoch = spec.build_config().epoch_length
    runner = ScenarioRunner(
        spec.scaled(duration=WARM_UP + (messages * epoch + tail))
    )
    net = runner.net
    latencies = Histogram()
    sent_at = {}

    def on_delivery(_topic: str, payload: bytes, _mid: str) -> None:
        if payload in sent_at:
            latencies.observe(net.simulator.now - sent_at[payload])

    for peer in net.peers:
        peer.on_topic_payload(on_delivery)
    rng = random.Random(seed)
    for m in range(messages):
        publisher = net.peers[rng.randrange(peers)]

        def publish(sim, p=publisher, data=f"{name}-{m}".encode()):
            sent_at[data] = sim.now
            try:
                p.publish(data)
            except (RateLimitError, RegistrationError):
                pass  # own epoch slot used, or not registered

        net.simulator.schedule(WARM_UP + (m * epoch + offset), publish)
    runner.run()
    return latencies, runner


def network_scaling_experiment(
    peer_counts: Sequence[int] = (10, 20, 40, 80),
    messages: int = 8,
    seed: int = 41,
) -> Tuple[Headers, Rows]:
    """Latency/coverage as the network grows (degree-6 overlay)."""
    headers = (
        "peers",
        "overlay diameter",
        "mean latency (s)",
        "p99 latency (s)",
        "coverage",
        "duplicates/msg",
    )
    rows: Rows = []
    for count in peer_counts:
        latencies, runner = propagation_run(
            "scale", count, seed, messages, offset=0.4
        )
        net = runner.net
        # Every peer including the publisher (local delivery) counts.
        expected = count * messages
        coverage = latencies.count / expected if expected else 0.0
        duplicates = net.metrics.counter("gossipsub.duplicates") / max(
            1, messages
        )
        rows.append(
            (
                count,
                diameter(net.network),
                latencies.mean,
                latencies.percentile(99),
                f"{coverage:.1%}",
                duplicates,
            )
        )
    return headers, rows
