"""Ablations of the design choices DESIGN.md §5 calls out.

* epoch length ``T`` — the rate-limit/latency trade-off and its effect
  on ``Thr = D/T`` and nullifier-map memory;
* router root window — tolerance to publisher/router tree-sync races
  under membership churn;
* flood-publish vs mesh-only publishing — latency vs bandwidth;
* mesh degree ``D`` — propagation latency vs duplicate load.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..core.config import ProtocolConfig
from ..crypto.keys import MembershipKeyPair
from ..gossipsub.params import GossipSubParams
from ..rln.membership import LocalGroup
from ..rln.prover import RlnProver, rln_keys
from ..rln.verifier import RlnVerifier, SignalCheck
from .scaling import propagation_run

Headers = Sequence[str]
Rows = List[Sequence]


def epoch_length_ablation(
    epoch_lengths: Sequence[float] = (1.0, 5.0, 10.0, 30.0, 60.0),
    max_delay: float = 20.0,
    senders: int = 20,
) -> Tuple[Headers, Rows]:
    """Effect of ``T`` on honest throughput, Thr and nullifier memory.

    Short epochs allow more honest messages per second but widen the
    acceptance window (Thr = D/T grows), which multiplies the number of
    epochs a router must remember.
    """
    headers = (
        "epoch T (s)",
        "thr = ceil(D/T)",
        "honest msgs/s (per member)",
        "nullifier epochs retained",
        "entries @ steady state",
    )
    rows: Rows = []
    for t in epoch_lengths:
        config = ProtocolConfig(epoch_length=t, max_network_delay=max_delay)
        retained = config.thr + 1  # current + thr past epochs
        rows.append(
            (
                t,
                config.thr,
                1.0 / t,
                retained,
                retained * senders,
            )
        )
    return headers, rows


def root_window_ablation(
    windows: Sequence[int] = (1, 2, 4, 8),
    churn_events: int = 6,
    seed: int = 21,
) -> Tuple[Headers, Rows]:
    """Acceptance of proofs made against stale roots, by window size.

    A publisher proves against its current tree; while the proof is in
    flight, up to ``k`` membership events may land. A router accepting
    only the latest root (window 1) drops every such message.
    """
    headers = ("root window", *[f"staleness {k}" for k in range(churn_events)])
    rng = random.Random(seed)
    pk, vk = rln_keys(seed=b"ablation-roots")
    rows: Rows = []
    for window in windows:
        group = LocalGroup(depth=10, root_window=window)
        member = MembershipKeyPair.generate(rng)
        index = group.apply_registration(member.commitment, 0)
        prover = RlnProver(keypair=member, proving_key=pk)
        verifier = RlnVerifier(
            verifying_key=vk, root_predicate=group.is_acceptable_root
        )
        outcomes = []
        # Re-prove at each staleness level: proof made now, validated
        # after k further registrations.
        for k in range(churn_events):
            proof = group.merkle_proof(index)
            signal = prover.create_signal(
                f"staleness-{k}".encode(), epoch=k, merkle_proof=proof
            )
            for _ in range(k):
                newcomer = MembershipKeyPair.generate(rng)
                group.apply_registration(
                    newcomer.commitment, group.applied_events
                )
            outcomes.append(
                "accept"
                if verifier.check(signal) is SignalCheck.VALID
                else "drop"
            )
        rows.append((window, *outcomes))
    return headers, rows


def _propagation_run(
    peer_count: int, gossip: GossipSubParams, seed: int
) -> Tuple[float, float, int, int]:
    """(mean latency, p99, duplicates, bytes sent) for one config."""
    latencies, runner = propagation_run(
        "abl", peer_count, seed, messages=10, offset=0.3, gossip=gossip
    )
    metrics = runner.net.metrics
    return (
        latencies.mean,
        latencies.percentile(99),
        metrics.counter("gossipsub.duplicates"),
        metrics.counter("gossipsub.bytes_sent"),
    )


def flood_publish_ablation(
    peer_count: int = 30, seed: int = 22
) -> Tuple[Headers, Rows]:
    """Flood-publish (default) vs mesh-only publishing."""
    headers = ("publish mode", "mean latency (s)", "p99 (s)", "duplicates", "bytes sent")
    rows: Rows = []
    for flood in (True, False):
        mean, p99, dupes, sent = _propagation_run(
            peer_count, GossipSubParams(flood_publish=flood), seed
        )
        rows.append(
            ("flood-publish" if flood else "mesh-only", mean, p99, dupes, sent)
        )
    return headers, rows


def mesh_degree_ablation(
    degrees: Sequence[int] = (3, 6, 10),
    peer_count: int = 30,
    seed: int = 24,
) -> Tuple[Headers, Rows]:
    """Mesh degree D: lower latency at higher duplicate/bandwidth cost."""
    headers = ("D", "mean latency (s)", "p99 (s)", "duplicates", "bytes sent")
    rows: Rows = []
    for d in degrees:
        gossip = GossipSubParams(
            d=d,
            d_lo=max(1, d - 2),
            d_hi=d + 4,
            d_score=max(1, d - 2),
            flood_publish=False,
        )
        mean, p99, dupes, sent = _propagation_run(
            peer_count, gossip, seed
        )
        rows.append((d, mean, p99, dupes, sent))
    return headers, rows
