"""Scenario-harness throughput: batched vs naive proof verification.

Three measurements:

* a hot-path microbenchmark — one signal stream validated by many
  independent routers, with and without the shared verification cache
  (the per-router work the cache collapses into a dict lookup);
* an end-to-end 1k-peer ``burst-spammer`` scenario run both ways,
  asserting the batched path is faster and behaviourally identical;
* the traced heap a relay's publish phase leaves behind at two peer
  counts — per peer, and the decoded-envelope part of it, which must
  not depend on the peer count (one envelope memo per process).

Run with ``pytest benchmarks/bench_scenarios.py -s`` (the end-to-end
comparison simulates a 1000-peer network and takes a few minutes).
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from dataclasses import replace

from repro.core.epoch import EpochTracker
from repro.core.nullifier_map import NullifierMap
from repro.core.protocol import WakuRlnRelayNetwork
from repro.core.validator import RlnMessageValidator
from repro.crypto.keys import MembershipKeyPair
from repro.crypto.merkle import MerkleTree
from repro.gossipsub.router import GossipSubRouter
from repro.net.network import Network
from repro.net.topology import connect_random_regular
from repro.rln.prover import RlnProver, rln_keys
from repro.rln.verifier import RlnVerifier, VerificationCache
from repro.scenarios.registry import scenario
from repro.scenarios.runner import run_scenario
from repro.sim.simulator import Simulator
from repro.waku.message import WakuMessage, decode_envelope

import random

#: Allocation sites of a decoded envelope: the codec (field slices, the
#: dataclass instance) and the relay's decode call (memo / cache slots).
_ENVELOPE_SITES = [
    tracemalloc.Filter(True, "*/repro/waku/message.py"),
    tracemalloc.Filter(True, "*/repro/waku/relay.py"),
]


def _live_envelopes():
    return sum(1 for obj in gc.get_objects() if type(obj) is WakuMessage)


def _warm_relay(peers, seed):
    """A registered, started relay a few heartbeats in, on the default
    shared verification cache — without it each peer parses its own
    ``RlnSignal`` per message and those copies (52 of 63 KB per peer at
    60 messages) drown the router state."""
    net = WakuRlnRelayNetwork(peer_count=peers, seed=seed)
    net.register_all()
    net.start()
    net.run(5.0)
    # From an empty memo, so the first decode of each message (and the
    # memo's dict resizes) land the same every run.
    decode_envelope.cache_clear()
    return net


def _publish_rounds(net, messages, publishers):
    """``messages`` distinct RLN messages, each fully propagated."""
    for i in range(messages):
        if i and i % publishers == 0:
            net.run(net.config.epoch_length)  # one message per epoch each
        net.peer(i % publishers).publish(b"footprint message %d" % i)
    net.run(net.config.epoch_length)


def relay_envelope_footprint(peers, messages=60, publishers=20, seed=11):
    """What ``messages`` distinct RLN messages leave on the heap of a
    ``peers``-peer relay once all of them have propagated: a dict with
    ``live_envelopes`` (``WakuMessage`` instances gained),
    ``envelope_bytes`` (traced bytes allocated at the codec and at the
    relay's decode call) and ``traced_bytes`` (everything the publish
    phase allocated and still holds — seen-caches, message caches,
    nullifier maps, delivery logs, and once per process the verified
    signals). tracemalloc and object counts, so the figures are
    deterministic; ``tests/benchmarks/test_relay_footprint.py`` pins
    the first two.
    """
    net = _warm_relay(peers, seed)
    gc.collect()
    live_before = _live_envelopes()
    tracemalloc.start()
    _publish_rounds(net, messages, publishers)
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    return {
        "peers": peers,
        "messages": messages,
        "live_envelopes": _live_envelopes() - live_before,
        "envelope_bytes": sum(
            stat.size
            for stat in snapshot.filter_traces(_ENVELOPE_SITES).statistics(
                "filename"
            )
        ),
        "traced_bytes": sum(
            stat.size for stat in snapshot.statistics("filename")
        ),
    }


def relay_marginal_bytes(peers, low=100, high=160):
    """Traced bytes one more message leaves on one more peer: the slope
    of :func:`relay_envelope_footprint`'s ``traced_bytes`` between two
    message counts, so fixed per-peer state cancels and what remains is
    router state per (peer, message) — seen-cache and nullifier-map
    slots, message-cache and delivery-log entries. The default counts
    sit inside one dict size class (86-170 entries), so no per-peer
    table resize lands between them;
    ``tests/benchmarks/test_relay_footprint.py`` pins the result.
    """
    small, large = (
        relay_envelope_footprint(peers, messages=count)["traced_bytes"]
        for count in (low, high)
    )
    return (large - small) / (peers * (high - low))


def relay_calls_per_event(peers=30, messages=40, publishers=20, seed=11):
    """Python-level calls per kernel event while ``messages`` RLN
    messages propagate through a ``peers``-peer relay: every function
    entry the interpreter reports to ``sys.setprofile`` (C builtins
    are not frames and do not count), divided by the events the kernel
    processed meanwhile. Three of four events are duplicate
    deliveries, so this is the length of the delivery path as a count
    that repeats exactly, where a wall-clock difference of the same
    size drowns in host noise. A duplicate costs four frames:
    ``Network._deliver_port`` → ``GossipSubRouter.deliver`` →
    ``SeenCache.witness`` and ``PeerScoreTracker.duplicate_message``.
    A first delivery adds the validator chain (router → relay
    ``_validate`` → the topic's RLN check) and one forward: one
    ``Network.send`` and one ``schedule_port`` call per fan-out, and
    one latency draw per target.
    ``tests/benchmarks/test_delivery_path_calls.py`` pins it.
    """
    net = _warm_relay(peers, seed)
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    events_before = net.simulator.events_processed
    sys.setprofile(count)
    try:
        _publish_rounds(net, messages, publishers)
    finally:
        sys.setprofile(None)
    return calls / (net.simulator.events_processed - events_before)


def heartbeat_calls_per_heartbeat(
    routers=40, topics=3, degree=10, seed=5, seconds=20.0
):
    """Python-level calls per ``GossipSubRouter.heartbeat`` on a
    ``routers``-router, ``topics``-topic random-regular overlay where
    every router subscribes to every topic: ``sys.setprofile`` "call"
    events counted only inside heartbeats, divided by the heartbeats
    run. One publish per quarter second keeps every router's gossip
    window non-empty, so each heartbeat pays for mesh upkeep *and*
    gossip emission — the multi-topic heartbeat's cost as a count that
    repeats exactly; ``tests/benchmarks/test_heartbeat_calls.py`` pins
    it.
    """
    sim = Simulator(seed=seed)
    network = Network(simulator=sim)
    names = [f"r{i:02d}" for i in range(routers)]
    nodes = [GossipSubRouter(name, network) for name in names]
    connect_random_regular(network, names, degree, seed=seed)
    topic_names = [f"topic-{t}" for t in range(topics)]
    for node in nodes:
        for topic in topic_names:
            node.subscribe(topic)
        node.start()
    sim.run_for(5.0)  # meshes form
    calls = beats = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    def profiled(heartbeat):
        def run():
            nonlocal beats
            beats += 1
            sys.setprofile(count)
            try:
                heartbeat()
            finally:
                sys.setprofile(None)

        return run

    for node in nodes:
        node.heartbeat = profiled(node.heartbeat)
    for step in range(int(seconds * 4)):
        nodes[step % routers].publish(
            topic_names[step % topics], b"heartbeat probe %d" % step
        )
        sim.run_for(0.25)
    return calls / beats


def _make_validators(vk, tree_root, simulator, routers, cache):
    validators = []
    for _ in range(routers):
        verifier = RlnVerifier(
            verifying_key=vk,
            root_predicate=lambda r, root=tree_root: r == root,
            cache=cache,
        )
        validators.append(
            RlnMessageValidator(
                verifier=verifier,
                epoch_tracker=EpochTracker(simulator, 10.0),
                nullifier_map=NullifierMap(thr=2),
            )
        )
    return validators


def test_validation_throughput_batched_vs_naive(record_table, bench_scale):
    """Hot path in isolation: every router validates every signal."""
    routers = bench_scale.n(200, 20)
    senders = bench_scale.n(30, 5)
    pk, vk = rln_keys(seed=b"bench-scenarios")
    rng = random.Random(7)
    tree = MerkleTree(16)
    provers = []
    for _ in range(senders):
        pair = MembershipKeyPair.generate(rng)
        index = tree.insert(pair.commitment.element)
        provers.append((RlnProver(keypair=pair, proving_key=pk), index))
    raw_signals = [
        prover.create_signal(f"m{i}".encode(), 0, tree.proof(index)).to_bytes()
        for i, (prover, index) in enumerate(provers)
    ]

    rows = []
    results = {}
    for label, cache in (
        ("naive (per-router verification)", None),
        ("batched (shared verification cache)", VerificationCache(4096)),
    ):
        simulator = Simulator(seed=0)
        validators = _make_validators(vk, tree.root, simulator, routers, cache)
        start = time.perf_counter()
        outcomes = [
            validator.validate_bytes(raw).outcome.value
            for raw in raw_signals
            for validator in validators
        ]
        elapsed = time.perf_counter() - start
        checked = len(raw_signals) * routers
        results[label] = (elapsed, outcomes)
        rows.append(
            (
                label,
                checked,
                round(elapsed, 4),
                int(checked / elapsed),
            )
        )

    record_table(
        "bench_scenarios_hot_path",
        "Scenario hot path: signal validations/second, "
        f"{routers} routers x {senders} signals",
        ("mode", "validations", "seconds", "validations/s"),
        rows,
        note="The shared cache verifies each distinct signal once network-wide.",
    )
    (naive_t, naive_out), (batched_t, batched_out) = results.values()
    assert batched_out == naive_out  # caching never changes outcomes
    if not bench_scale.quick:
        assert batched_t < naive_t


def test_1k_peer_scenario_batched_beats_naive(record_table, bench_scale):
    """End-to-end: the full burst-spammer scenario at 1000 peers."""
    base = scenario("burst-spammer").scaled(
        peers=bench_scale.n(1000, 40), duration=30.0
    )
    base = replace(
        base,
        traffic=replace(
            base.traffic, messages_per_epoch=0.5, active_fraction=0.2
        ),
    )
    rows = []
    results = {}
    for label, cache_size in (("naive", 0), ("batched", 65536)):
        spec = replace(
            base, config_overrides={"verification_cache_size": cache_size}
        )
        result = run_scenario(spec)
        results[label] = result
        rows.append(
            (
                label,
                round(result.wall_clock_seconds, 1),
                result.proof_verifications,
                result.verification_cache_hits,
                round(result.delivery_rate, 4),
                result.spam_delivered,
                result.members_slashed,
            )
        )

    record_table(
        "bench_scenarios_1k_peers",
        "burst-spammer at 1000 peers: batched vs naive verification",
        (
            "mode",
            "wall clock (s)",
            "proof verifications",
            "cache hits",
            "delivery rate",
            "spam delivered",
            "slashed",
        ),
        rows,
        note="Same seed; identical protocol outcomes, less verification work.",
    )
    naive, batched = results["naive"], results["batched"]
    # Behaviour must be identical; only the work may differ.
    for field in (
        "honest_published",
        "honest_delivered",
        "spam_published",
        "spam_delivered",
        "slashes_submitted",
        "members_slashed",
    ):
        assert getattr(naive, field) == getattr(batched, field)
    assert batched.proof_verifications < naive.proof_verifications
    if not bench_scale.quick:
        assert batched.proof_verifications < naive.proof_verifications / 100
        assert batched.wall_clock_seconds < naive.wall_clock_seconds


def test_relay_footprint_per_peer(record_table, bench_scale):
    """Publish-phase heap at two peer counts, same messages."""
    counts = bench_scale.n((200, 400), (20, 40))
    low, high = bench_scale.n((100, 160), (20, 40))
    runs = [relay_envelope_footprint(peers) for peers in counts]
    for run in runs:
        run["marginal_bytes"] = relay_marginal_bytes(run["peers"], low, high)
    small, large = runs
    calls = relay_calls_per_event()
    record_table(
        "bench_scenarios_relay_footprint",
        f"Relay heap after {small['messages']} RLN messages have "
        "propagated (tracemalloc, publish phase only)",
        (
            "peers",
            "live WakuMessage",
            "envelope KB",
            "traced KB",
            "traced KB / peer",
            "marginal B / (peer, message)",
        ),
        [
            (
                run["peers"],
                run["live_envelopes"],
                round(run["envelope_bytes"] / 1024, 1),
                round(run["traced_bytes"] / 1024),
                round(run["traced_bytes"] / 1024 / run["peers"], 1),
                round(run["marginal_bytes"], 1),
            )
            for run in runs
        ],
        note="Decoded envelopes live once per process (the envelope memo "
        "in waku/message.py), so their bytes do not follow the peer "
        "count; what does is per-peer state: seen-caches, message "
        "caches, nullifier maps, delivery logs. The last column is the "
        f"slope of traced bytes between {low} and {high} messages: what "
        "one more message costs on one more peer, fixed per-peer state "
        "cancelled (what the shared verification cache holds once per "
        "message is spread over the peers). Delivery path length at 30 "
        f"peers / 40 messages: {calls:.2f} Python-level calls per kernel "
        "event.",
        meta={
            "calls_per_event": round(calls, 2),
            "messages": small["messages"],
            "marginal_messages_low": low,
            "marginal_messages_high": high,
            "envelope_bytes_small": small["envelope_bytes"],
            "envelope_bytes_large": large["envelope_bytes"],
        },
    )
    assert large["live_envelopes"] <= large["messages"] + 8
    assert large["envelope_bytes"] <= 1.2 * small["envelope_bytes"]
