"""Million-identity membership: tree-of-trees registry at 1M leaves.

Three measurements behind the `million-id-city` scenario:

* registration throughput — a 1M-identity genesis batch folded into
  the sharded :class:`~repro.crypto.merkle_forest.CanonicalShardedTree`
  (bottom-up sub-tree folds, ~1 hash/leaf, no per-event journal) vs
  one registration event per identity, the journaled path (O(depth)
  hashes/leaf). Root equivalence is asserted at matched scale; plus
  the traced bytes per identity a whole genesis deployment (the one
  packed member list the contract, the seed event and the tree share,
  and its lookup index) holds once in use, and at its set-up peak,
  and what a built network holds once its list has dropped the buffer;
* proof + verify cost — two-level membership proofs out of the sharded
  registry vs flat proofs at matched capacity: identical depth,
  identical verify cost, byte-identical flattened path;
* memory flatness over epochs — the scenario (scaled down) run at
  increasing durations: live nullifier state must stay window-flat
  while cumulative signals grow ~16x, and the tracemalloc peak's
  per-epoch growth must decline (bounded caches warming, not
  per-epoch state accumulating).

Two more record where a ``registry-genesis``-shaped run (the
reference benchmark's workload, :func:`registry_genesis_spec`) spends
its host memory:

* RSS by phase — ``VmHWM`` / ``VmRSS`` of a fresh interpreter after
  its imports, after the network is deployed, at kernel start and at
  run end, so "where the peak is set" is a measured number;
* bytes per live peer by source file — tracemalloc at run end, as the
  slope between two peer counts, so fixed costs cancel.

Run with ``pytest benchmarks/bench_million_id.py -s``; tier-1 smokes
it tiny via ``--bench-quick``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

from repro.core.config import ProtocolConfig
from repro.core.protocol import WakuRlnRelayNetwork, genesis_commitments
from repro.crypto.field import Fr
from repro.crypto.hashing import hash1, hash_call_count
from repro.crypto.shamir import line_intercept
from repro.crypto.keys import IdentityCommitment
from repro.crypto.slot_index import PackedFieldList
from repro.eth.chain import Blockchain
from repro.eth.contracts import MembershipRegistry
from repro.rln.membership import MembershipStore
from repro.scenarios.registry import scenario
from repro.scenarios.runner import ScenarioRunner, run_scenario
from repro.scenarios.spec import (
    AdversaryGroup,
    AdversaryMix,
    ScenarioSpec,
    TopicSpec,
    TrafficModel,
)

#: Matched-capacity flat reference size: big enough that per-leaf hash
#: counts are stable, small enough that the O(depth)/leaf path finishes
#: in seconds (a 1M-leaf flat build would take ~20M hashes).
FLAT_REFERENCE = 50_000


def _registration_run(depth, sub_depth, values):
    """Build one registry and batch-register ``values``; returns stats."""
    store = MembershipStore(depth=depth, sub_depth=sub_depth)
    group = store.local_group()
    hashes = hash_call_count()
    start = time.perf_counter()
    group.apply_registration_batch(values, event_index=0)
    wall = time.perf_counter() - start
    hashes = hash_call_count() - hashes
    return store, group, wall, hashes


def _one_by_one_run(depth, values):
    """Register ``values`` as one event each (the journaled path)."""
    group = MembershipStore(depth=depth).local_group()
    hashes = hash_call_count()
    start = time.perf_counter()
    for event, value in enumerate(values):
        group.apply_registration(IdentityCommitment(Fr(value)), event)
    wall = time.perf_counter() - start
    return group, wall, hash_call_count() - hashes


def genesis_deployment_footprint(n, depth, sub_depth):
    """Traced bytes per identity of an ``n``-member genesis deployment
    in use: the packed member list (contract, seed event and the
    sharded tree's leaf chunks all reference it) and its lookup index —
    after the first ``find_leaf`` and one genesis slash (a journaled
    overwrite that takes one sub-tree's leaves private). Also the
    tracemalloc *peak* from deployment on (set while the lookup index
    sorts its one packed key per identity).
    tracemalloc, so both figures are deterministic;
    ``tests/benchmarks/test_genesis_footprint.py`` pins them at 50k
    identities. Returns ``(held bytes per identity, peak bytes per
    identity, wall s)``.
    """
    secret = 424242  # the one genesis member whose key "leaks"
    leaked = hash1(Fr(secret))
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    pks = PackedFieldList(
        leaked.to_bytes() + bytes(genesis_commitments(n - 1, seed=9))
    )
    tracemalloc.reset_peak()  # assembling the list is not the deployment
    contract = MembershipRegistry("m", stake_wei=1)
    chain = Blockchain()
    chain.deploy(contract)
    chain.create_account("reporter", balance=1)
    contract.genesis_register(pks)
    event = chain.seed_event("m", "MembersRegistered", pks=pks)
    del pks
    store = MembershipStore(depth=depth, sub_depth=sub_depth)
    group = store.local_group()
    group.apply_registration_batch(event.args["pks"], event_index=0)
    index = group.index_of(IdentityCommitment(leaked))
    assert chain.call_now("reporter", "m", "slash", secret).success
    group.apply_removal(index, event_index=1)
    assert not group.contains(IdentityCommitment(leaked))
    assert store.stats()["index_bytes"] > 0
    wall = time.perf_counter() - start
    gc.collect()
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return held / n, peak / n, wall


def deployed_network_footprint(n, depth, sub_depth, peers=4):
    """Traced bytes per genesis identity a built ``n``-identity
    :class:`WakuRlnRelayNetwork` of ``peers`` peers holds after
    ``register_all``: the list's lookup index (its buffer is gone once
    the tree has folded it) and the deployment's fixed cost spread over
    ``n``; also the tracemalloc peak from deployment on (the index
    sort, after the buffer is unmapped; the buffer is an anonymous
    mapping, which tracemalloc does not see).
    ``tests/benchmarks/test_genesis_footprint.py`` pins both figures
    at 50k identities. Returns ``(held bytes per identity, peak bytes
    per identity, wall s)``.
    """
    config = ProtocolConfig(merkle_depth=depth, membership_sub_depth=sub_depth)
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    net = WakuRlnRelayNetwork(peers, config=config, seed=9, pre_registered=n)
    net.register_all()
    wall = time.perf_counter() - start
    gc.collect()
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert net.membership_store.stats()["index_bytes"] > 0
    return held / n, peak / n, wall


def registry_genesis_spec(peers, pre_registered, seed=3, quick=False):
    """A spec shaped like the reference benchmark's ``registry-genesis``
    workload (full size: 1000 peers over 500k dormant identities, 30 s):
    three weight-0 side topics, two adaptive-backoff agents, a depth-20
    registry of 2^10 sub-trees. Its traffic is 2 % of the peers
    publishing about once per run; ``quick`` is the smoke form (a
    quarter of the peers at 0.5 msg/epoch for 15 s), which still
    publishes at a few dozen peers."""
    return ScenarioSpec(
        name="registry-genesis",
        description="registry-genesis-shaped footprint run",
        peers=peers,
        duration=15.0 if quick else 30.0,
        seed=seed,
        pre_registered=pre_registered,
        streaming_metrics=True,
        traffic=(
            TrafficModel(messages_per_epoch=0.5, active_fraction=0.25)
            if quick
            else TrafficModel(messages_per_epoch=0.35, active_fraction=0.02)
        ),
        topics=(
            TopicSpec("/waku/2/market/proto", traffic_weight=0.0,
                      subscribe_fraction=0.3),
            TopicSpec("/waku/2/chat/proto", traffic_weight=0.0,
                      subscribe_fraction=0.2),
            TopicSpec("/waku/2/firehose/proto", traffic_weight=0.0,
                      subscribe_fraction=0.05, rln_protected=False),
        ),
        adversaries=AdversaryMix(
            groups=(
                AdversaryGroup(strategy="adaptive-backoff", count=2,
                               budget_stakes=4, burst=6),
            ),
        ),
        config_overrides={
            "merkle_depth": 20,
            "membership_sub_depth": 10,
            "eager_nullifier_gc": True,
        },
    )


def _source_file(path):
    """``gossipsub/router.py`` for a ``repro`` module, else the base name."""
    head, sep, tail = path.rpartition(f"repro{os.sep}")
    return tail if sep else os.path.basename(path)


def live_peer_bytes(peers, pre_registered, seed=3, quick=False):
    """Traced bytes held at the end of a :func:`registry_genesis_spec`
    run (the runner, its network and the result still alive), by the
    source file that allocated them."""
    spec = registry_genesis_spec(peers, pre_registered, seed, quick)
    # The double-signal recovery memo is process-wide: start it empty,
    # as a fresh process does, or entries an earlier run left behind
    # make this run allocate less than it would alone.
    line_intercept.cache_clear()
    gc.collect()
    tracemalloc.start()
    runner = ScenarioRunner(spec)
    runner.run()
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    held = Counter()
    for stat in snapshot.statistics("filename"):
        held[_source_file(stat.traceback[0].filename)] += stat.size
    del runner
    return held


def live_peer_marginal_bytes(low, high, pre_registered, seed=3, quick=False):
    """Traced bytes one more live peer holds at run end: the slope of
    :func:`live_peer_bytes` between ``low`` and ``high`` peers, over
    the same dormant identities, so fixed costs (the genesis index,
    module state) cancel. Returns ``(bytes per peer, {file: bytes per
    peer})``; ``tests/benchmarks/test_peer_footprint.py`` pins the
    first at smoke size.

    An untraced warm-up run goes first. Without it the first run's
    one-time allocations (the runner's lazy imports, dataclass
    creation) land in the smaller traced run only and enter the slope
    as a negative per-peer term, whose size depends on what the
    process imported before."""
    ScenarioRunner(registry_genesis_spec(low, pre_registered, seed, quick)).run()
    small = live_peer_bytes(low, pre_registered, seed, quick)
    large = live_peer_bytes(high, pre_registered, seed, quick)
    by_file = {
        name: (large[name] - small[name]) / (high - low)
        for name in large.keys() | small.keys()
    }
    return sum(by_file.values()), by_file


#: The phases :func:`rss_by_phase` reads ``/proc/self/status`` at.
PHASES = ("imports", "deploy", "kernel start", "run end")


def _vm_mb():
    with open("/proc/self/status") as status:
        fields = dict(line.split(":", 1) for line in status)
    return [int(fields[k].split()[0]) / 1024 for k in ("VmHWM", "VmRSS")]


def _phases(peers, pre_registered, seed, quick):
    """Run in the fresh interpreter :func:`rss_by_phase` starts."""
    marks = [_vm_mb()]
    build, run = WakuRlnRelayNetwork.__init__, WakuRlnRelayNetwork.run

    def built(net, *args, **kwargs):
        build(net, *args, **kwargs)
        marks.append(_vm_mb())

    def started(net, duration):
        marks.append(_vm_mb())
        run(net, duration)

    WakuRlnRelayNetwork.__init__, WakuRlnRelayNetwork.run = built, started
    spec = registry_genesis_spec(peers, pre_registered, seed, quick)
    ScenarioRunner(spec).run()
    marks.append(_vm_mb())
    return marks


def rss_by_phase(peers, pre_registered, seed=3, quick=False):
    """``[(phase, VmHWM MB, VmRSS MB)]`` of a fresh ``PYTHONHASHSEED=0``
    interpreter running :func:`registry_genesis_spec` once, at each of
    :data:`PHASES`: after importing this module (and so the run's
    packages), after ``WakuRlnRelayNetwork`` is built (genesis list,
    index, peers), when the kernel starts (registrations settled,
    relays subscribed) and when the run returns. Linux only."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    args = [str(peers), str(pre_registered), str(seed), str(int(quick))]
    out = subprocess.run(
        [sys.executable, __file__, *args],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    marks = json.loads(out.splitlines()[-1])
    return [(phase, *mark) for phase, mark in zip(PHASES, marks)]


def test_registration_throughput(record_table, bench_scale):
    total = bench_scale.n(1_000_000, 600)
    depth = bench_scale.n(20, 10)
    sub_depth = bench_scale.n(10, 4)
    flat_n = min(bench_scale.n(FLAT_REFERENCE, 600), total)
    values = genesis_commitments(total)

    tracemalloc.start()
    store, group, wall_sharded, hashes_sharded = _registration_run(
        depth, sub_depth, values
    )
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    flat_group, wall_flat, hashes_flat = _one_by_one_run(
        depth, values[:flat_n]
    )
    # Root equivalence at matched scale: the sharded registry is the
    # same tree, just decomposed.
    _, sharded_ref, _, _ = _registration_run(depth, sub_depth, values[:flat_n])
    assert sharded_ref.root == flat_group.root
    assert sharded_ref.recent_roots() == flat_group.recent_roots()

    hashes_deployed = hash_call_count()
    deployed_bytes, deployed_peak, wall_deployed = (
        genesis_deployment_footprint(total, depth, sub_depth)
    )
    hashes_deployed = hash_call_count() - hashes_deployed
    hashes_network = hash_call_count()
    network_bytes, network_peak, wall_network = deployed_network_footprint(
        total, depth, sub_depth
    )
    hashes_network = hash_call_count() - hashes_network

    rows = [
        (
            "sharded genesis",
            total,
            round(wall_sharded, 3),
            hashes_sharded,
            round(hashes_sharded / total, 2),
            int(total / wall_sharded),
            round(held / total, 1),
            round(peak / total, 1),
        ),
        (
            "flat one-by-one",
            flat_n,
            round(wall_flat, 3),
            hashes_flat,
            round(hashes_flat / flat_n, 2),
            int(flat_n / wall_flat),
            "-",
            "-",
        ),
        (
            "genesis deployment",
            total,
            round(wall_deployed, 3),
            hashes_deployed,
            round(hashes_deployed / total, 2),
            int(total / wall_deployed),
            round(deployed_bytes, 1),
            round(deployed_peak, 1),
        ),
        (
            "deployed network",
            total,
            round(wall_network, 3),
            hashes_network,
            round(hashes_network / total, 2),
            int(total / wall_network),
            round(network_bytes, 1),
            round(network_peak, 1),
        ),
    ]
    record_table(
        "bench_million_id_registration",
        f"Million-id registry: genesis batch at depth {depth} "
        f"(sub-trees of 2^{sub_depth})",
        (
            "mode", "leaves", "wall s", "hashes", "hashes/leaf",
            "leaves/s", "traced B/leaf", "peak B/leaf",
        ),
        rows,
        note="sharded genesis folds each sub-tree bottom-up (~1 hash "
        "per leaf, journal-free); the flat path re-hashes an O(depth) "
        "branch per registration. Roots are asserted equal at matched "
        "scale. traced B/leaf is tracemalloc bytes held per identity, "
        "peak B/leaf the traced high-water mark: for sharded genesis "
        "the tree alone plus the list's 8 B lookup index (the packed "
        "member list exists before tracing starts; with no contract "
        "to have sorted it, the tree boundary's zero-leaf probe sorts "
        "the index, traced, which sets this row's peak and about "
        "doubles its wall s); for genesis deployment "
        "everything a deployment in use holds - the one packed list "
        "behind contract, seed event and tree (32 B) and its lookup "
        "index (8 B: sorted slots and their top words) - after the "
        "first find_leaf and one slash, and the peak is the index "
        "sort's transient keys (one int per identity); for deployed "
        "network a whole 4-peer WakuRlnRelayNetwork after "
        "register_all, whose tree folded the list at deploy so the "
        "list dropped its buffer: what is left is the index and the "
        "network's fixed cost (the number the tier-1 guard pins at "
        "50k), and the peak is the index sort, which runs only after "
        "the buffer (an anonymous mapping tracemalloc does not see) "
        "is unmapped. The flat run is not traced (tracing would "
        "distort its wall s).",
        meta={
            "identities": total,
            "depth": depth,
            "sub_depth": sub_depth,
            "hashes_per_leaf_sharded": hashes_sharded / total,
            "hashes_per_leaf_flat": hashes_flat / flat_n,
            "materialized_subtrees": store.stats()["materialized_subtrees"],
            "peak_memory_bytes": int(peak),
            "deployment_bytes_per_identity": deployed_bytes,
            "deployment_peak_bytes_per_identity": deployed_peak,
            "network_bytes_per_identity": network_bytes,
            "network_peak_bytes_per_identity": network_peak,
        },
    )
    assert group.member_count == total
    # The genesis fold must beat the journaled path per leaf by ~depth.
    assert hashes_sharded / total < hashes_flat / flat_n
    if not bench_scale.quick:
        assert hashes_sharded / total <= 2.0


def test_proof_and_verify_cost(record_table, bench_scale):
    n = bench_scale.n(20_000, 300)
    depth = bench_scale.n(20, 10)
    sub_depth = bench_scale.n(10, 4)
    samples = bench_scale.n(400, 20)
    values = genesis_commitments(n, seed=7)
    _, sharded, _, _ = _registration_run(depth, sub_depth, values)
    _, flat, _, _ = _registration_run(depth, None, values)
    rng = random.Random(41)
    indices = [rng.randrange(n) for _ in range(samples)]

    start = time.perf_counter()
    flat_proofs = [flat.merkle_proof(i) for i in indices]
    flat_prove = time.perf_counter() - start
    start = time.perf_counter()
    two_level = [sharded.two_level_proof(i) for i in indices]
    sharded_prove = time.perf_counter() - start

    root = flat.root
    start = time.perf_counter()
    ok_flat = all(p.verify(root) for p in flat_proofs)
    flat_verify = time.perf_counter() - start
    start = time.perf_counter()
    ok_two = all(p.verify(sharded.root) for p in two_level)
    sharded_verify = time.perf_counter() - start
    assert ok_flat and ok_two
    # Two-level proofs are the same branch, split: flattening one must
    # reproduce the flat proof's siblings exactly.
    for i, proof in zip(indices, two_level):
        assert proof.depth == depth
        assert proof.leaf_index == i
        flat_again = proof.flatten()
        assert flat_again.siblings == flat.merkle_proof(i).siblings

    rows = [
        (
            "flat",
            samples,
            round(1e6 * flat_prove / samples, 1),
            round(1e6 * flat_verify / samples, 1),
        ),
        (
            "two-level",
            samples,
            round(1e6 * sharded_prove / samples, 1),
            round(1e6 * sharded_verify / samples, 1),
        ),
    ]
    record_table(
        "bench_million_id_proofs",
        f"Membership proofs: flat vs two-level at {n} members "
        f"(depth {depth})",
        ("proof", "samples", "prove us", "verify us"),
        rows,
        note="a two-level proof carries the identical sibling branch "
        "(depth_sub + depth_top = depth), so *verify* cost matches the "
        "flat tree bit for bit; proving pays extra dict lookups to "
        "assemble the branch from lazily-materialised sub-tree state.",
        meta={
            "members": n,
            "depth": depth,
            "sub_depth": sub_depth,
            "verify_ratio": sharded_verify / flat_verify
            if flat_verify
            else 1.0,
        },
    )


def _peak_for_run(spec, peers, duration):
    tracemalloc.start()
    result = run_scenario(spec, peers=peers, duration=duration)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, result


def test_memory_flatness_over_epochs(record_table, bench_scale):
    """Peak memory and live nullifier state vs run length.

    Same scenario, same peers, 16x the epochs. The bounded
    configuration (epoch-grid GC + streaming metrics) must show (a)
    live nullifier state that is window-flat — O(active x window) at
    any instant, however long the run — and (b) a whole-process
    tracemalloc peak whose per-epoch growth *declines* as the run gets
    longer: what still grows is bounded per-peer caches (decode,
    mcache) warming toward their caps plus chain history, not
    per-epoch state.

    Two deliberate honesty notes. The lazy default is *also*
    window-pruned — peers' periodic housekeeping timer calls
    ``NullifierMap.prune`` every epoch — so at scenario level the
    eager flag buys determinism (bounded at every instant, no timer
    reliance), not steady-state bytes; the truly-unbounded byte
    contrast is measured in isolation by the E9 rows of
    ``paper_claims`` (bench_paper_claims). And whole-process peaks are dominated by
    transient caches identical across configurations, which is why the
    asserts target the growth *shape* and the directly-measured
    nullifier state rather than variant-vs-variant peak deltas.
    """
    # Overlay a busy traffic model: million-id-city's slow-tier rates
    # (0.04 active x 0.1 msg/epoch) generate too few signals for the
    # state under test to be visible at a measurable number of peers.
    busy = TrafficModel(messages_per_epoch=1.0, active_fraction=0.1)
    spec = replace(
        scenario("million-id-city"), name="million-id-memcurve",
        traffic=busy,
    )
    lazy_overrides = {
        k: v
        for k, v in spec.config_overrides.items()
        if k != "eager_nullifier_gc"
    }
    lazy = replace(
        spec,
        name="million-id-memcurve-lazy",
        streaming_metrics=False,
        config_overrides=lazy_overrides,
    )
    peers = bench_scale.n(200, 12)
    durations = bench_scale.n((50.0, 200.0, 800.0), (6.0, 12.0))

    rows = []
    peaks = []
    live = []
    pruned = []
    for duration in durations:
        peak_b, result = _peak_for_run(spec, peers, duration)
        peak_l, _ = _peak_for_run(lazy, peers, duration)
        peaks.append(peak_b)
        live.append(int(result.extras.get("nullifier_entries_live", 0)))
        pruned.append(
            int(result.extras.get("nullifier_entries_pruned", 0))
        )
        rows.append(
            (int(duration), peak_b, peak_l, live[-1], pruned[-1])
        )

    record_table(
        "bench_million_id_memory",
        f"Memory flatness over epochs ({peers} peers, scaled "
        "million-id-city, busy traffic)",
        ("epochs", "peak bytes (bounded)", "peak bytes (lazy/exact)",
         "nullifiers live", "nullifiers pruned"),
        rows,
        note="bounded = epoch-grid nullifier GC + streaming metrics; "
        "lazy/exact = timer-pruned nullifier maps + the uncapped "
        "economics series. Live nullifier state is window-flat while "
        "cumulative pruned entries grow with the run; peaks converge "
        "as bounded per-peer caches (decode, mcache) finish warming — "
        "the truly-unbounded nullifier byte contrast is recorded in "
        "the E9 rows of paper_claims.",
        meta={
            "peers": peers,
            "max_epochs": int(durations[-1]),
            "nullifiers_live_final": live[-1],
            "nullifiers_pruned_final": pruned[-1],
            "peak_memory_bytes": int(max(peaks)),
        },
    )
    if not bench_scale.quick:
        # Live nullifier state is bounded by the window, not run
        # length: 16x the epochs (and ~16x the cumulative signals,
        # witnessed by the pruned counter) must leave live state flat.
        assert pruned[-1] > 10 * max(live[-1], 1)
        assert live[-1] < 3 * max(live[0], 1) + peers
        # Peak growth per epoch declines as caches reach their caps —
        # the curve is a plateau, not a line.
        early = (peaks[1] - peaks[0]) / (durations[1] - durations[0])
        late = (peaks[2] - peaks[1]) / (durations[2] - durations[1])
        assert late < early


def test_city_parallel_speedup(record_table, bench_scale):
    """million-id-city through the windowed parallel path: the flagship
    scenario's whole feature set (sharded registry, genesis population,
    eager nullifier GC, streaming metrics) runs on forked workers now,
    and the run fact — fingerprint plus the registry/GC extras — must
    not notice. Wall clock is recorded serial vs 4 workers; the >=2x
    acceptance check applies at full scale on hosts with >=4 cpus."""
    import os

    spec = scenario("million-id-city").scaled(
        peers=bench_scale.n(1000, 24),
        duration=bench_scale.n(30.0, 6.0),
    )

    start = time.perf_counter()
    serial = run_scenario(spec, parallel_workers=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    forked = run_scenario(spec, parallel_workers=4)
    forked_s = time.perf_counter() - start

    assert forked.fingerprint() == serial.fingerprint()
    assert (
        forked.extras["membership_subtrees_materialized"]
        == serial.extras["membership_subtrees_materialized"]
    )
    assert (
        forked.extras["nullifier_entries_pruned"]
        == serial.extras["nullifier_entries_pruned"]
    )

    speedup = serial_s / forked_s if forked_s else 0.0
    cores = os.cpu_count() or 1
    if not bench_scale.quick and cores >= 4:
        # On fewer cores the forked mode cannot overlap shard
        # execution; the table records the honest overhead instead.
        assert speedup >= 2.0, (
            f"4 forked workers only {speedup:.2f}x over serial "
            f"({forked_s:.1f}s vs {serial_s:.1f}s on {cores} cpus)"
        )

    rows = [
        ("in-process", 1, serial.fingerprint(), f"{serial_s:.2f}", "1.00"),
        ("forked", 4, forked.fingerprint(), f"{forked_s:.2f}",
         f"{speedup:.2f}"),
    ]
    record_table(
        "bench_million_id_parallel",
        f"million-id-city on the parallel stack ({spec.peers} peers, "
        f"{spec.shards} shards)",
        ("mode", "workers", "fingerprint", "wall s", "speedup"),
        rows,
        note=(
            "Scaled profile of the flagship scenario with every "
            "feature live: pre-registered genesis identities folded "
            "into the sharded registry, eager nullifier GC, streaming "
            "metrics merged at the final barrier. Fingerprints and the "
            "registry/GC extras are asserted equal across modes; the "
            ">=2x speedup check applies at full scale on >=4-cpu "
            "hosts (see host_cpus)."
        ),
        meta={
            "peers": spec.peers,
            "duration": spec.duration,
            "shards": spec.shards,
            "pre_registered": spec.pre_registered,
            "host_cpus": cores,
            "wall_clock_serial_s": round(serial_s, 3),
            "wall_clock_forked_s": round(forked_s, 3),
            "subtrees_materialized": serial.extras[
                "membership_subtrees_materialized"
            ],
            "speedup_4_workers": (
                round(speedup, 2)
                if not bench_scale.quick and cores >= 4
                else None
            ),
        },
    )


def test_rss_by_phase(record_table, bench_scale):
    """Where a registry-genesis run's RSS high-water mark is set."""
    if not os.path.exists("/proc/self/status"):
        import pytest

        pytest.skip("reads /proc/self/status")
    peers = bench_scale.n(1000, 40)
    dormant = bench_scale.n(500_000, 2000)
    phases = rss_by_phase(peers, dormant, seed=3, quick=bench_scale.quick)
    rows = [(phase, round(hwm, 1), round(rss, 1)) for phase, hwm, rss in phases]
    marks = {phase: (hwm, rss) for phase, hwm, rss in phases}
    record_table(
        "bench_million_id_rss_phases",
        f"RSS by phase: registry-genesis shape, {peers} peers over "
        f"{dormant:,} dormant identities, seed 3, one fresh process",
        ("phase", "VmHWM MB", "VmRSS MB"),
        rows,
        note="VmHWM is the process's RSS high-water mark so far. deploy "
        "is WakuRlnRelayNetwork built: the genesis list derived into an "
        "anonymous mapping, folded by the canonical tree and unmapped, "
        "then the lookup index sorted on the kept 4 B top words, then "
        "the peers. kernel start follows register_all and the relays' "
        "subscribe storm. The peak is set by the run when VmHWM at "
        "kernel start is below VmRSS at run end.",
        meta={
            "peers": peers,
            "identities": dormant,
            **{
                f"{phase.replace(' ', '_')}_{kind}_mb": value
                for phase, (hwm, rss) in marks.items()
                for kind, value in (("hwm", hwm), ("rss", rss))
            },
        },
    )
    if not bench_scale.quick:
        assert marks["kernel start"][0] < marks["run end"][1]


def test_live_peer_bytes_by_file(record_table, bench_scale):
    """Per-live-peer host memory of a registry-genesis run, by file."""
    low, high = bench_scale.n((500, 1000), (20, 40))
    dormant = bench_scale.n(500_000, 2000)
    per_peer, by_file = live_peer_marginal_bytes(
        low, high, dormant, seed=3, quick=bench_scale.quick
    )
    rows = [
        (name, round(size / 1024, 2))
        for name, size in sorted(by_file.items(), key=lambda i: -i[1])
        if abs(size) >= 0.05 * 1024
    ]
    rows.append(("total", round(per_peer / 1024, 2)))
    record_table(
        "bench_million_id_peer_bytes",
        f"Traced KB per live peer at run end, {low} -> {high} peers over "
        f"{dormant:,} dormant identities (registry-genesis shape, seed 3)",
        ("file", "KB per peer"),
        rows,
        note="tracemalloc at run end, by the file that allocated; the "
        "slope between two peer counts, so the genesis index and other "
        "fixed costs cancel. Rows under 0.05 KB are left out of the "
        "table, not of the total. It includes per-(peer, message) "
        "state (seen-cache, message cache, nullifier maps) for the "
        "run's messages.",
        meta={"low": low, "high": high, "identities": dormant,
              "bytes_per_peer": per_peer},
    )


if __name__ == "__main__":  # the fresh interpreter of rss_by_phase()
    print(json.dumps(_phases(*map(int, sys.argv[1:]))))
