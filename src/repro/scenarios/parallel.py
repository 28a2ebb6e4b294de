"""Barrier drivers for window-isolated parallel scenario runs.

Two drivers share one barrier protocol — identical barrier times,
identical chain-op ordering, identical memo-commit points, identical
spam-probe feed — which is what makes the worker axis of the
equivalence matrix hold: a forked run *is* the in-process run with
serialization boundaries inserted.

In-process (``workers == 1``): one
:class:`~repro.sim.parallel_stack.WindowedStackSimulator` owns every
shard. Each barrier drains the chain outbox, sorts it on the
partition-invariant ``(time, origin, seq)`` key, applies it back to
the single chain (a replica fed by itself), and commits the window's
verification-memo delta.

Forked (``workers > 1``): the coordinator forks *before building
anything* and each child materializes only the shards it owns
(build-per-worker) — a worker's peak RSS scales with its roster slice,
not with the whole deployment. The coordinator itself materializes the
empty ownership set: a ghost-only skeleton whose chain replays the
deterministic build and then serves as the reference replica. After
their private builds, children surrender the cross-worker packets
their build produced (topic-subscription broadcasts to remote
endpoints) in a one-shot ``ready`` exchange, and the barrier loop
begins: the coordinator routes exported port packets by destination
shard, merges every worker's chain ops into one globally sorted stream
that all replicas (its own included) apply, merges every worker's
verification-memo delta into one batch all caches commit, and feeds
the barrier-synced spam-delivery probe. Everything on the pipes is a
plain picklable tuple — no closures cross a process boundary.

After the final barrier the coordinator verifies every worker's chain
fingerprint against its own replica (divergence is a hard error, not a
statistic) and merges the workers' measurement state back into the
runner, so result aggregation downstream is mode-blind.
"""

from __future__ import annotations

import os
import pickle
import resource
import shutil
import traceback
from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..crypto.digests import blake2b
from ..errors import SimulationError
from ..eth.chain import Blockchain, ReplicaOp
from ..sim.parallel_stack import PortPacket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversaries.report import AttackReport
    from .runner import ScenarioRunner

#: Peak RSS (``ru_maxrss`` units — KiB on Linux) of every worker of the
#: most recent parallel drive in this process: one entry per forked
#: child, or a single entry for an in-process drive. A module global
#: rather than a result extra because memory footprint is a property of
#: the host process layout, not of the simulated run — putting it in
#: the result would break cross-mode fingerprint equality.
LAST_RUN_WORKER_RSS: List[int] = []


def barrier_times(
    duration: float, window: float
) -> Iterator[Tuple[float, float, bool]]:
    """Yield ``(t_prev, t_end, final)`` barrier windows covering
    ``[0, duration]``. Every driver derives its windows from here, so
    barrier times are bit-identical across worker counts."""
    t = 0.0
    while t < duration:
        t_end = min(t + window, duration)
        yield t, t_end, t_end >= duration
        t = t_end


def contiguous_groups(shards: int, workers: int) -> List[range]:
    """Split ``range(shards)`` into ``workers`` contiguous groups."""
    base, extra = divmod(shards, workers)
    groups: List[range] = []
    start = 0
    for index in range(workers):
        size = base + (1 if index < extra else 0)
        groups.append(range(start, start + size))
        start += size
    return groups


def chain_fingerprint(chain: Blockchain) -> Tuple[int, int, int, str]:
    """Compact digest of a replica's entire observable chain state."""
    digest = blake2b(digest_size=16)
    for event in chain.event_log:
        digest.update(
            repr(
                (
                    event.name,
                    sorted(event.args.items()),
                    event.block_number,
                    event.log_index,
                )
            ).encode()
        )
    return (
        len(chain.blocks),
        chain.burnt_wei,
        len(chain.event_log),
        digest.hexdigest(),
    )


def _record_rss(values: List[int]) -> None:
    LAST_RUN_WORKER_RSS[:] = values


# -- in-process driver --------------------------------------------------------


def drive_in_process(
    runner: "ScenarioRunner", engine
) -> Optional["AttackReport"]:
    """Drive all shards on this process through the barrier protocol."""
    net = runner.net
    sim = net.simulator
    chain = net.chain
    cache = net.verification_cache
    duration = runner.spec.duration
    for _t_prev, t_end, final in barrier_times(duration, sim.window):
        sim.run_window(t_end, final=final)
        ops = chain.order_ops(chain.drain_outbox())
        chain.replica_apply(ops, t_end)
        if cache is not None:
            # Single worker: this window's memo delta is already the
            # merged batch.
            cache.commit(cache.drain())
        if sim.drain_exports():
            raise SimulationError(
                "in-process driver owns every shard; nothing may export"
            )
        runner._spam_feed = runner._spam_delivered_total()
    _record_rss([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss])
    return engine.report() if engine is not None else None


# -- forked driver ------------------------------------------------------------


def _send(pipe, message: object) -> None:
    pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
    pipe.flush()


def _recv(pipe):
    try:
        message = pickle.load(pipe)
    except EOFError:
        raise SimulationError(
            "parallel worker closed its pipe without reporting an error"
        )
    if message[0] == "error":
        raise SimulationError(
            f"parallel worker failed:\n{message[1]}"
        )
    return message


def _send_to(child, message: object) -> None:
    """Send to one child, surfacing its traceback if it already died
    (a bare BrokenPipeError would mask the real failure)."""
    _pid, down, up = child
    try:
        _send(down, message)
    except BrokenPipeError:
        _recv(up)  # raises with the child's shipped traceback
        raise SimulationError(
            "parallel worker exited without reporting an error"
        )


def _spam_partial(runner: "ScenarioRunner") -> int:
    """This worker's spam deliveries: only owned peers' recorders ever
    fire here, so the full-population sum *is* the partial."""
    return runner._spam_delivered_total()


def _child_bundle(runner: "ScenarioRunner", engine, group: range):
    net = runner.net
    config = net.config
    bundle: Dict[str, object] = {
        "received": runner._received,
        "topic_counts": runner._topic_counts,
        "topic_published": runner._topic_published,
        "topic_expected": runner._topic_expected,
        "honest_published": runner._honest_published,
        "expected_deliveries": runner._expected_deliveries,
        "detected_pks": runner._detected_pks,
        "joined": runner._joined,
        "left": runner._left,
        # Live peers this worker owns; workers partition the live
        # population, so the global count is the plain sum.
        "peers_final": len(net.peers),
        # Departed peers submitted slashes too before churning out.
        "slashes": sum(
            p.slashes_submitted for p in net.peers + net.departed
        ),
        "counters": dict(net.metrics.counters),
        "events_processed": net.simulator.events_processed,
        "chain_fp": chain_fingerprint(net.chain),
        "memo": (
            (net.verification_cache.hits, net.verification_cache.misses)
            if net.verification_cache is not None
            else None
        ),
        "subtrees": (
            net.membership_store.materialized_indices()
            if config.membership_sub_depth is not None
            else None
        ),
        "nullifier": None,
        "ru_maxrss": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss,
        "report": None,
        "watchtowers": None,
    }
    if config.eager_nullifier_gc:
        pruned = 0
        live = 0
        for peer in net.peers:
            for validator in peer.rln_topics.values():
                pruned += validator.nullifier_map.auto_pruned_entries
                live += validator.nullifier_map.entry_count
        bundle["nullifier"] = (pruned, live)
    if 0 in group:
        # Shard 0 hosts every pinned global: the adversary engine's
        # agents and the watchtower services, so this worker alone
        # holds their live measurement state.
        if engine is not None:
            bundle["report"] = engine.report()
        rows = []
        evidence = set()
        for service in runner._watchtowers:
            rows.append((service.service_id, service.summary()))
            evidence.update(service.store.evidence_pks())
            service.close()
        bundle["watchtowers"] = (rows, evidence)
    return bundle


def _child_loop(runner: "ScenarioRunner", group: range, down, up) -> None:
    # Build-per-worker: nothing exists yet in this process beyond the
    # runner's pure spec state — materialize only the owned shards,
    # then arm every process on them.
    runner._materialize(frozenset(group))
    engine = runner._prepare()
    net = runner.net
    sim = net.simulator
    chain = net.chain
    cache = net.verification_cache
    # Build-time cross-worker packets (subscription broadcasts from
    # owned peers to remote endpoints) queued as exports; hand them to
    # the coordinator for routing into the first window.
    _send(up, ("ready", sim.drain_exports()))
    while True:
        message = pickle.load(down)
        kind = message[0]
        if kind in ("window", "flush"):
            if kind == "window":
                _, t_prev, t_end, final, packets, ops, memo, feed = (
                    message
                )
                chain.replica_apply(ops, t_prev)
                if cache is not None and memo:
                    # The previous window's merged memo delta — every
                    # worker commits the identical batch, so committed
                    # snapshots stay bit-identical.
                    cache.commit(memo)
                runner._spam_feed = feed
            else:
                _, t_end, packets = message
                final = True
            if packets:
                sim.inject(packets)
            sim.run_window(t_end, final=final)
            _send(
                up,
                (
                    "ok",
                    sim.drain_exports(),
                    chain.drain_outbox(),
                    cache.drain() if cache is not None else [],
                    _spam_partial(runner),
                ),
            )
        elif kind == "finish":
            _, t_final, ops = message
            chain.replica_apply(ops, t_final)
            _send(up, ("done", _child_bundle(runner, engine, group)))
            if runner._watchtower_dir is not None:
                # The sqlite stores live in this child's temp dir; the
                # coordinator never sees the path.
                shutil.rmtree(runner._watchtower_dir, ignore_errors=True)
            return
        else:  # pragma: no cover - protocol misuse
            raise SimulationError(f"unknown coordinator message {kind!r}")


def drive_forked(
    runner: "ScenarioRunner", workers: int
) -> Optional["AttackReport"]:
    """Fork ``workers`` children — each building and owning a
    contiguous shard group — and coordinate them barrier by barrier.
    Returns the attack report (shipped from the shard-0 worker) and
    merges all worker measurement state into ``runner``."""
    groups = contiguous_groups(runner.spec.shards, workers)
    owner_of: Dict[int, int] = {}
    for index, group in enumerate(groups):
        for shard in group:
            owner_of[shard] = index

    # Fork before anything is built: children inherit only the
    # runner's pure spec state, so each worker's footprint is its own
    # construction, not a copy-on-write image of the whole deployment.
    children: List[Tuple[int, object, object]] = []
    for group in groups:
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(down_w)
                os.close(up_r)
                for _pid, sibling_down, sibling_up in children:
                    sibling_down.close()
                    sibling_up.close()
                down = os.fdopen(down_r, "rb")
                up = os.fdopen(up_w, "wb")
                try:
                    _child_loop(runner, group, down, up)
                    status = 0
                except BaseException:
                    try:
                        _send(up, ("error", traceback.format_exc()))
                    except Exception:
                        pass
            finally:
                os._exit(status)
        os.close(down_r)
        os.close(up_w)
        children.append(
            (pid, os.fdopen(down_w, "wb"), os.fdopen(up_r, "rb"))
        )

    try:
        # The coordinator's own build: the empty ownership set — every
        # roster entry a ghost, the chain a full replica of the
        # deterministic build, no peers, no scheduled processes, and
        # therefore nothing to export.
        runner._materialize(frozenset())
        runner._prepare()
        net = runner.net
        sim = net.simulator
        chain = net.chain
        duration = runner.spec.duration
        if sim.drain_exports():
            raise SimulationError(
                "coordinator owns no shards; its build may not export"
            )

        packets_for: List[List[PortPacket]] = [[] for _ in groups]
        for _pid, _down, up in children:
            _kind, exports = _recv(up)
            for packet in exports:
                if packet[2] > duration:
                    continue
                packets_for[owner_of[packet[0]]].append(packet)

        ops: List[ReplicaOp] = []
        memo: list = []
        feed = 0

        def collect(commit_memo: bool) -> List[ReplicaOp]:
            """Gather one round of replies: route exports, merge memo
            deltas, sum the spam probe, return the round's raw ops."""
            nonlocal feed, memo
            gathered: List[ReplicaOp] = []
            deltas: list = []
            feed = 0
            for _pid, _down, up in children:
                _kind, exports, child_ops, child_memo, spam = _recv(up)
                gathered.extend(child_ops)
                deltas.extend(child_memo)
                feed += spam
                for packet in exports:
                    if packet[2] > duration:
                        # Lands after the run ends — the in-process
                        # driver leaves these in the heap unexecuted.
                        continue
                    packets_for[owner_of[packet[0]]].append(packet)
            # Flush/final deltas are unobservable (no window reads
            # after them) and the in-process driver commits per
            # window, so only per-window deltas ship onward.
            memo = deltas if commit_memo else []
            return gathered

        for t_prev, t_end, final in barrier_times(duration, sim.window):
            round_memo = memo
            for index, child in enumerate(children):
                _send_to(
                    child,
                    (
                        "window",
                        t_prev,
                        t_end,
                        final,
                        packets_for[index],
                        ops,
                        round_memo,
                        feed,
                    ),
                )
            chain.replica_apply(ops, t_prev)
            packets_for = [[] for _ in groups]
            ops = chain.order_ops(collect(commit_memo=True))

        # Flush round: cross-worker packets landing at exactly
        # t == duration were produced inside the final (inclusive)
        # window; the in-process driver executes them in that same
        # window, so forked workers must get one more chance to. The
        # flush's ops join the final window's batch — in-process they
        # drain together.
        for index, child in enumerate(children):
            _send_to(child, ("flush", duration, packets_for[index]))
        packets_for = [[] for _ in groups]
        ops = chain.order_ops(ops + collect(commit_memo=False))

        for child in children:
            _send_to(child, ("finish", duration, ops))
        chain.replica_apply(ops, duration)

        bundles = []
        for _pid, _down, up in children:
            _kind, bundle = _recv(up)
            bundles.append(bundle)
    finally:
        for pid, down, up in children:
            try:
                down.close()
                up.close()
            except Exception:
                pass
            os.waitpid(pid, 0)

    return _merge(runner, bundles, duration)


def _merge(
    runner: "ScenarioRunner",
    bundles: List[Dict[str, object]],
    duration: float,
) -> Optional["AttackReport"]:
    net = runner.net
    sim = net.simulator
    parent_fp = chain_fingerprint(net.chain)
    for bundle in bundles:
        if bundle["chain_fp"] != parent_fp:
            raise SimulationError(
                "replica chains diverged across workers: "
                f"{bundle['chain_fp']} != {parent_fp}"
            )

    # Event-level state: each datum was produced on exactly one worker
    # (recorders fire on the receiver's shard, publishers count on
    # their own), so plain sums/unions reassemble the global totals.
    # The coordinator built no peers, so its own contribution is zero
    # everywhere.
    for bundle in bundles:
        for node_id, row in bundle["received"].items():
            mine = runner._received.setdefault(node_id, [0, 0])
            mine[0] += row[0]
            mine[1] += row[1]
        for name, row in bundle["topic_counts"].items():
            totals = runner._topic_counts[name]
            totals[0] += row[0]
            totals[1] += row[1]
        for name, value in bundle["topic_published"].items():
            runner._topic_published[name] += value
        for name, value in bundle["topic_expected"].items():
            runner._topic_expected[name] += value
        runner._honest_published += bundle["honest_published"]
        runner._expected_deliveries += bundle["expected_deliveries"]
        runner._detected_pks |= bundle["detected_pks"]
        runner._joined += bundle["joined"]
        runner._left += bundle["left"]

    runner._peers_final_override = sum(
        bundle["peers_final"] for bundle in bundles
    )
    runner._peer_slashes_override = sum(
        bundle["slashes"] for bundle in bundles
    )

    # Build-per-worker: every counter increment — build-time wiring
    # included — happened on exactly one worker, so the totals are the
    # plain sums; the coordinator's ghost-only build counted nothing.
    merged: Dict[str, int] = defaultdict(int)
    for bundle in bundles:
        for name, value in bundle["counters"].items():
            merged[name] += value
    net.metrics.counters.clear()
    net.metrics.counters.update(merged)

    if bundles[0]["memo"] is not None:
        runner._memo_override = (
            sum(bundle["memo"][0] for bundle in bundles),
            sum(bundle["memo"][1] for bundle in bundles),
        )
    if bundles[0]["subtrees"] is not None:
        by_domain: Dict[str, frozenset] = {}
        for bundle in bundles:
            for domain, indices in bundle["subtrees"].items():
                by_domain[domain] = (
                    by_domain.get(domain, frozenset()) | indices
                )
        runner._subtree_override = sum(
            len(indices) for indices in by_domain.values()
        )
    if bundles[0]["nullifier"] is not None:
        runner._nullifier_override = (
            sum(bundle["nullifier"][0] for bundle in bundles),
            sum(bundle["nullifier"][1] for bundle in bundles),
        )

    sim.events_processed = sum(
        bundle["events_processed"] for bundle in bundles
    )
    sim.now = duration
    _record_rss([bundle["ru_maxrss"] for bundle in bundles])

    report = None
    for bundle in bundles:
        if bundle["report"] is not None:
            report = bundle["report"]
        if bundle["watchtowers"] is not None:
            runner._wt_override = bundle["watchtowers"]
    return report
