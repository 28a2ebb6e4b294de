"""Membership sync at scale: shared copy-on-write store vs replicas.

The paper's "every peer maintains the Merkle tree locally" means a
mid-run membership event (registration or slash) re-hashes an O(depth)
path in every replica — O(peers x topics x depth) hashes network-wide
per event. The shared store every deployment builds
(:class:`~repro.rln.membership.MembershipStore`) records each event
once on the canonical tree; every other replica's application is a
pointer advance.

The measurement is a replica-grid microbenchmark — 1k peers x 8 topic
domains, a burst of mid-run registrations and slashes applied to every
replica, with shared and independent ``LocalGroup`` replicas:
network-wide hash count (the process-global
:func:`repro.crypto.hashing.hash_call_count` probe) and wall clock.
Sharing must cut hashes by >=10x (in practice it is ~peers x), and
every replica must end on the same roots and root window either way.

Run with ``pytest benchmarks/bench_membership_sync.py -s``.
"""

from __future__ import annotations

import time
from typing import List

from repro.crypto.hashing import hash_call_count
from repro.crypto.keys import MembershipKeyPair
from repro.rln.membership import LocalGroup, MembershipStore

DEPTH = 20


def _bootstrap_population(
    peers: int, domains: List[str], members, shared: bool
):
    """peers x domains replicas, pre-synced to ``members`` registrations.

    A shared replica replicates one synced reference per domain (the
    ``register_all`` fast path); an independent one holds a private
    tree, so it applies the members itself. Either way this happens
    before the measured section, which isolates the *mid-run* event
    cost.
    """
    store = MembershipStore(depth=DEPTH) if shared else None
    references = {
        domain: _registered(store.local_group(domain), members)
        for domain in (domains if shared else ())
    }
    grid: List[List[LocalGroup]] = []
    for _ in range(peers):
        row = []
        for domain in domains:
            if shared:
                group = store.local_group(domain)
                group.replicate_from(references[domain])
            else:
                group = _registered(LocalGroup(DEPTH), members)
                group.tree.canonical.prune()  # no view reads the past
            row.append(group)
        grid.append(row)
    return store, grid


def _registered(group: LocalGroup, members) -> LocalGroup:
    for event, pair in enumerate(members):
        group.apply_registration(pair.commitment, event)
    return group


def _apply_midrun_events(grid, newcomers, base_event: int) -> None:
    """Interleave registrations and slashes across every replica."""
    event = base_event
    for round_index, pair in enumerate(newcomers):
        for row in grid:
            for group in row:
                group.apply_registration(pair.commitment, event)
        event += 1
        if round_index % 2:  # slash an early member every other round
            victim = round_index // 2
            for row in grid:
                for group in row:
                    group.apply_removal(victim, event)
            event += 1


def test_midrun_membership_events_shared_vs_independent(
    record_table, bench_scale
):
    peers = bench_scale.n(1000, 20)
    topics = bench_scale.n(8, 2)
    bootstrap_members = bench_scale.n(64, 8)
    midrun_registrations = bench_scale.n(8, 3)

    import random

    rng = random.Random(42)
    members = [
        MembershipKeyPair.generate(rng) for _ in range(bootstrap_members)
    ]
    newcomers = [
        MembershipKeyPair.generate(rng)
        for _ in range(midrun_registrations)
    ]
    domains = [f"/bench/topic-{t}" for t in range(topics)]

    rows = []
    measured = {}
    stores = {}
    grids = {}
    for label, shared in (("independent", False), ("shared", True)):
        store, grid = _bootstrap_population(peers, domains, members, shared)
        hashes_before = hash_call_count()
        start = time.perf_counter()
        _apply_midrun_events(grid, newcomers, base_event=bootstrap_members)
        elapsed = time.perf_counter() - start
        hashes = hash_call_count() - hashes_before
        events = len(newcomers) + len(newcomers) // 2
        measured[label] = (hashes, elapsed)
        stores[label] = store
        grids[label] = grid
        rows.append(
            (
                label,
                peers,
                topics,
                events,
                hashes,
                round(hashes / (events * topics), 1),
                round(elapsed, 3),
            )
        )

    # Equivalence: every replica in both populations converged to the
    # same roots and windows, domain by domain.
    for row_shared, row_indep in zip(grids["shared"], grids["independent"]):
        for group_shared, group_indep in zip(row_shared, row_indep):
            assert group_shared.root == group_indep.root
            assert group_shared.recent_roots() == group_indep.recent_roots()

    hash_reduction = measured["independent"][0] / measured["shared"][0]
    wall_reduction = measured["independent"][1] / measured["shared"][1]
    stats = stores["shared"].stats()
    record_table(
        "bench_membership_sync",
        f"Mid-run membership events, {peers} peers x {topics} topics "
        f"(depth {DEPTH})",
        (
            "mode",
            "peers",
            "topics",
            "events",
            "network-wide hashes",
            "hashes / event / domain",
            "wall clock (s)",
        ),
        rows,
        note=(
            f"sharing: {hash_reduction:.0f}x fewer hashes, "
            f"{wall_reduction:.1f}x wall clock; "
            f"{stats['events_deduped']} replica applications deduped"
        ),
        meta={
            "scale_peers": peers,
            "scale_topics": topics,
            "depth": DEPTH,
            "hash_reduction": round(hash_reduction, 1),
            "wall_clock_reduction": round(wall_reduction, 2),
            "events_deduped": stats["events_deduped"],
        },
    )
    if not bench_scale.quick:
        assert hash_reduction >= 10.0, (
            f"shared store must cut network-wide hashes >=10x, "
            f"got {hash_reduction:.1f}x"
        )
        assert wall_reduction >= 3.0, (
            f"shared store must cut wall clock >=3x, "
            f"got {wall_reduction:.1f}x"
        )
