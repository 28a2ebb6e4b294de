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

:class:`WindowedScenarioRunner` is the runner such a spec gets (the
base :class:`~repro.scenarios.runner.ScenarioRunner` picks it). Its
construction is split in three so forked workers can *build per
worker* instead of forking a fully built stack:

* ``__init__`` computes pure, picklable scenario state (roster ids,
  topic maps, counters) and — with one worker — immediately
  materializes the network.
* :meth:`WindowedScenarioRunner._materialize` builds the network for
  one ownership set: the full deployment (``owned=None``), a worker's
  shard group, or the coordinator's empty set (all ghosts, chain
  replica only).
* :meth:`WindowedScenarioRunner._prepare` arms every scheduled process
  (registration, watchtowers, traffic, adversaries, churn, faults) and
  flips the chain into replica mode. Every decision that spans
  workers — publisher choice, churn victims, dial lists, delegator
  sets — draws from dedicated named entity streams, so each worker
  derives the identical plan without coordination.
"""

from __future__ import annotations

import os
import pickle
import resource
import shutil
import traceback
from bisect import insort
from collections import defaultdict
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..crypto.digests import blake2b
from ..errors import SimulationError
from ..eth.chain import Blockchain, ReplicaOp
from ..sim.parallel_stack import PortPacket
from ..sim.simulator import quiescent_gc
from ..waku.message import DEFAULT_PUBSUB_TOPIC
from .runner import ScenarioRunner
from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversaries.engine import AdversaryEngine
    from ..adversaries.report import AttackReport
    from ..core.peer import WakuRlnRelayPeer

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
    runner: "WindowedScenarioRunner", engine
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


def _spam_partial(runner: "WindowedScenarioRunner") -> int:
    """This worker's spam deliveries: only owned peers' recorders ever
    fire here, so the full-population sum *is* the partial."""
    return runner._spam_delivered_total()


def _child_bundle(runner: "WindowedScenarioRunner", engine):
    net = runner.net
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
        "counters": dict(net.metrics.counters),
        "events_processed": net.simulator.events_processed,
        "chain_fp": chain_fingerprint(net.chain),
        "ru_maxrss": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss,
        # Shard 0 hosts every pinned global: the adversary engine's
        # agents and the watchtower services, so its worker alone has
        # an engine and services to report.
        "report": engine.report() if engine is not None else None,
        "facts": runner._facts(),
    }
    for service in runner._watchtowers:
        service.close()
    return bundle


def _child_loop(
    runner: "WindowedScenarioRunner", group: range, down, up
) -> None:
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
            _send(up, ("done", _child_bundle(runner, engine)))
            if runner._watchtower_dir is not None:
                # The sqlite stores live in this child's temp dir; the
                # coordinator never sees the path.
                shutil.rmtree(runner._watchtower_dir, ignore_errors=True)
            return
        else:  # pragma: no cover - protocol misuse
            raise SimulationError(f"unknown coordinator message {kind!r}")


def drive_forked(
    runner: "WindowedScenarioRunner", workers: int
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
    runner: "WindowedScenarioRunner",
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

    # Build-per-worker: every counter increment — build-time wiring
    # included — happened on exactly one worker, so the totals are the
    # plain sums; the coordinator's ghost-only build counted nothing.
    merged: Dict[str, int] = defaultdict(int)
    for bundle in bundles:
        for name, value in bundle["counters"].items():
            merged[name] += value
    net.metrics.counters.clear()
    net.metrics.counters.update(merged)

    # Workers partition the live population, so live peers, their
    # slashes, memo lookups and nullifier entries are plain sums; built
    # sub-trees are the union of every worker's index sets.
    facts = [bundle["facts"] for bundle in bundles]

    def pair_sum(key: str) -> Optional[Tuple[int, int]]:
        if facts[0][key] is None:
            return None
        return tuple(map(sum, zip(*(fact[key] for fact in facts))))

    subtrees: Optional[Dict[str, FrozenSet[int]]] = None
    if facts[0]["subtrees"] is not None:
        subtrees = {}
        for fact in facts:
            for domain, indices in fact["subtrees"].items():
                subtrees[domain] = subtrees.get(domain, frozenset()) | indices
    runner._merged_facts = {
        "watchtowers": next(
            (f["watchtowers"] for f in facts if f["watchtowers"] is not None),
            None,
        ),
        "peers_final": sum(fact["peers_final"] for fact in facts),
        "slashes": sum(fact["slashes"] for fact in facts),
        "memo": pair_sum("memo"),
        "subtrees": subtrees,
        "nullifier": pair_sum("nullifier"),
    }

    sim.events_processed = sum(
        bundle["events_processed"] for bundle in bundles
    )
    sim.now = duration
    _record_rss([bundle["ru_maxrss"] for bundle in bundles])

    return next(
        (b["report"] for b in bundles if b["report"] is not None), None
    )


# -- the windowed runner ------------------------------------------------------


def shard_pins(spec: ScenarioSpec) -> Dict[str, int]:
    """Entities a parallel run pins to shard 0.

    Globals that execute as shard-0 events (the adversary engine,
    watchtower delegation) mutate their subjects directly, so those
    subjects must be co-resident with shard 0: the adversary tail and
    the watchtower services."""
    tail = spec.adversaries.total_count
    pins = {
        f"peer-{index}": 0 for index in range(spec.peers - tail, spec.peers)
    }
    if spec.watchtowers is not None:
        for service_id in spec.watchtowers.service_ids():
            pins[service_id] = 0
    return pins


class ChurnPlan:
    """Every churn decision of a parallel run, fixed before it starts.

    Serial churn decides as it goes: each leave draws its victim from
    the shared stream against the *live* peer list. Under window
    isolation that list is partition-dependent state, so parallel runs
    precompute the whole schedule from one dedicated entity stream
    (``entity_rng("churn")``) over the roster — every worker derives
    the identical plan, arms only the events whose subject it owns,
    and declares the rest as ghosts.
    """

    __slots__ = ("joins", "leaves", "leave_time_of")

    def __init__(self) -> None:
        #: ``(time, k, joiner_id, neighbors, topic_names)``.
        self.joins: List[Tuple[float, int, str, List[str], Tuple[str, ...]]] = []
        #: ``(time, j, victim_id)`` — successful leaves only.
        self.leaves: List[Tuple[float, int, str]] = []
        #: victim id -> leave time (watchtower dial filtering).
        self.leave_time_of: Dict[str, float] = {}


class ExpectedTracker:
    """Plan-derived live honest-subscriber counts per topic.

    Serial runs maintain ``_honest_subscribers`` by mutating it inside
    join/leave handlers — partition-dependent state under isolation (a
    worker only executes its own churn events). The tracker rebuilds
    the same time series from the churn plan: a sorted per-topic delta
    list applied up to the querying event's timestamp. Same-time ties
    are safe because churn origins (``churn-join:k``/``churn-leave:j``)
    sort before publisher origins (``peer-N``) in the kernel's
    ``(time, origin, seq)`` order, matching the ``<=`` cut here.
    """

    def __init__(self, base: Dict[str, int]) -> None:
        self._value = dict(base)
        self._deltas: Dict[str, List[Tuple[float, int]]] = {}
        self._cursor: Dict[str, int] = {}

    def add(self, topic: str, time: float, delta: int) -> None:
        insort(self._deltas.setdefault(topic, []), (time, delta))
        self._cursor.setdefault(topic, 0)

    def value(self, topic: str, now: float) -> int:
        deltas = self._deltas.get(topic)
        if not deltas:
            return self._value.get(topic, 0)
        cursor = self._cursor[topic]
        value = self._value[topic]
        while cursor < len(deltas) and deltas[cursor][0] <= now:
            value += deltas[cursor][1]
            cursor += 1
        self._cursor[topic] = cursor
        self._value[topic] = value
        return value


class WindowedScenarioRunner(ScenarioRunner):
    """A scenario on the window-isolated kernel, in this process
    (one worker) or forked across workers (see the module docstring).

    It overrides only what differs from the serial build: the network
    options, planned churn, the replays a worker makes for entities it
    does not hold, the barrier-fed spam probe, the barrier drive and
    the measurements a forked run merges from its workers. It defines
    neither ``__init__`` nor ``run``, so wrapping those on the base
    class wraps every run."""

    def _build(self) -> None:
        spec = self.spec
        self._pins = shard_pins(spec)
        #: Effective worker count.
        self.workers = min(spec.parallel_workers, spec.shards)
        #: Barrier-fed cumulative spam-delivery count: the engine's
        #: probe reads this instead of the live recorder sum, so
        #: adaptive adversaries see the same value at the same tick on
        #: every shard/worker cell.
        self._spam_feed = 0
        #: Forked mode: the run-end facts merged from the worker
        #: bundles (None = read the live objects, in-process).
        self._merged_facts: Optional[Dict[str, object]] = None
        #: Churn machinery (None until :meth:`_schedule_churn`).
        self._churn_plan: Optional[ChurnPlan] = None
        self._expected: Optional[ExpectedTracker] = None
        #: joiner id -> planned extra-topic names (``_on_join``
        #: applies these instead of drawing coins).
        self._join_topics: Dict[str, Tuple[str, ...]] = {}
        if self.workers <= 1:
            # One worker builds here; forked runs defer — each worker
            # (and the coordinator) materializes its own ownership
            # slice after the fork.
            self._materialize(None)

    def _materialize(self, owned: Optional[FrozenSet[int]] = None) -> None:
        """Build the network for one ownership set: ``None`` builds
        everything; a frozenset narrows construction to those shards
        before any entity exists (build-per-worker), including the
        coordinator's empty set."""
        super()._materialize(
            shards=self.spec.shards,
            parallel=True,
            shard_pins=self._pins,
            owned_shards=owned,
        )

    def _on_join(self, peer: WakuRlnRelayPeer) -> None:
        """A churn joiner applies its *planned* topic set: the coins
        were already flipped inside the churn plan, identically on
        every worker (the expected-delivery counts follow the plan)."""
        self._topic_subscribers[DEFAULT_PUBSUB_TOPIC].add(peer.node_id)
        for name in self._join_topics.get(peer.node_id, ()):
            if name in self._open_topics:
                peer.join_open_topic(name)
            else:
                peer.join_rln_topic(name)
            self._topic_subscribers[name].add(peer.node_id)
        self._instrument(peer)

    def _spam_probe(self) -> int:
        # A worker sees only its own peers' deliveries live; the
        # barrier feeds the run-wide sum.
        return self._spam_feed

    def _count_expected(self, topic: str) -> int:
        """With churn, replay the plan's delta schedule: live mutation
        is partition-dependent."""
        if self._expected is not None:
            return self._expected.value(topic, self.net.simulator.now)
        return super()._count_expected(topic)

    def _schedule_adversaries(self) -> Optional[AdversaryEngine]:
        """The tail peers are pinned to shard 0, so only shard 0's
        owner holds them and builds the engine. Every other worker
        replays the *funding* side effect — the agents' wallet
        balances are direct chain-account state every replica must
        agree on — and skips the engine (strategies consume no RNG, so
        there is no stream to keep aligned)."""
        net = self.net
        if 0 in net.simulator.owned:
            return super()._schedule_adversaries()
        mix = self.spec.adversaries
        stake = net.config.stake_wei
        tail_ids = iter(net.roster[len(net.roster) - mix.total_count :])
        for group in mix.groups:
            budget_wei = group.budget_stakes * stake
            for _ in range(group.count):
                account = net.chain.get_account(f"eoa:{next(tail_ids)}")
                account.balance = max(0, budget_wei - stake)
        return None

    def _watchtower_dial_filter(self, neighbor: str, now: float) -> bool:
        """Is ``neighbor`` still dialable at ``now``? Parallel dial
        plans draw from the static roster, so a restarting service must
        skip peers the churn plan removed — by the plan's clock, which
        every worker shares, not by partition-local network state."""
        plan = self._churn_plan
        if plan is None:
            return True
        left_at = plan.leave_time_of.get(neighbor)
        return left_at is None or left_at > now

    def _build_watchtowers(self) -> None:
        """Services are pinned to shard 0. The owner builds them for
        real; every other worker replays the shared facts — the
        service's chain account, its overlay endpoint and dial links,
        and each delegator's fee transfer — then flips slash reporting
        off on the delegators it owns."""
        wspec = self.spec.watchtowers
        if wspec is None:
            return
        net = self.net
        if 0 in net.simulator.owned:
            super()._build_watchtowers()
            for service in self._watchtowers:
                service.dial_filter = self._watchtower_dial_filter
            return
        from ..watchtower.service import watchtower_dial_plan

        service_ids = wspec.service_ids()
        for service_id in service_ids:
            net.chain.create_account(f"eoa:{service_id}", 0)
            net.network.attach_remote(service_id)
            # Mirror the owner's build-time dials (the plan is a shared
            # entity stream) so owned peers hold their half of each
            # link.
            dials = watchtower_dial_plan(net, service_id, wspec.degree)
            for neighbor in dials:
                net.network.connect(service_id, neighbor)
        for index, node_id in enumerate(self._delegators()):
            net.chain.transfer_value(
                f"eoa:{node_id}",
                f"eoa:{service_ids[index % len(service_ids)]}",
                wspec.delegation_fee_wei,
            )
            peer = net.peer_named(node_id)
            if peer is not None:
                peer.disable_slash_reporting()

    # -- churn -----------------------------------------------------------------

    def _schedule_churn(self) -> None:
        self._churn_plan = self._plan_churn()
        self._arm_churn()
        self._build_expected_tracker()

    def _plan_churn(self) -> Optional[ChurnPlan]:
        """Precompute every churn decision (see ChurnPlan).

        The plan walks both grids chronologically (joins before leaves
        at ties, matching the serial scheduling order), maintaining
        the alive list the way the live run would: roster order,
        joiners appended, victims removed. Leave attempts that find at
        most one candidate draw nothing and remove no one — the grid
        keeps ticking until the success quota or the horizon, exactly
        like the serial rescheduling loop."""
        spec = self.spec
        churn = spec.churn
        if not churn.active:
            return None
        net = self.net
        jr = net.simulator.entity_rng("churn")
        duration = spec.duration
        plan = ChurnPlan()
        alive: List[str] = list(net.roster)
        grid: List[Tuple[float, int, int]] = []
        if churn.join_interval and churn.max_joins:
            t = churn.start + churn.join_interval
            k = 0
            while k < churn.max_joins and t <= duration:
                grid.append((t, 0, k))
                k += 1
                t += churn.join_interval
        if churn.leave_interval and churn.max_leaves:
            t = churn.start + churn.leave_interval
            j = 0
            while t <= duration:
                grid.append((t, 1, j))
                j += 1
                t += churn.leave_interval
        grid.sort()
        successes = 0
        for t, tag, index in grid:
            if tag == 0:
                joiner = f"peer-{spec.peers + index}"
                fanout = (
                    net._degree if net._degree is not None else len(alive)
                )
                neighbors = jr.sample(alive, min(fanout, len(alive)))
                names = []
                for topic in spec.topics:
                    fraction = topic.subscribe_fraction
                    if fraction <= 0:
                        continue
                    if fraction < 1.0 and jr.random() >= fraction:
                        continue
                    names.append(topic.name)
                plan.joins.append(
                    (t, index, joiner, neighbors, tuple(names))
                )
                alive.append(joiner)
            else:
                if successes >= churn.max_leaves:
                    continue
                candidates = [
                    nid
                    for nid in alive
                    if nid not in self._adversary_ids
                    and nid not in self._publisher_ids
                ]
                if len(candidates) > 1:
                    victim = jr.choice(candidates)
                    alive.remove(victim)
                    plan.leaves.append((t, successes, victim))
                    plan.leave_time_of[victim] = t
                    successes += 1
        return plan

    def _arm_churn(self) -> None:
        """Arm the plan's events on the shards this worker owns;
        declare every foreign joiner as a ghost so its registration
        transaction and overlay endpoint exist on this replica."""
        plan = self._churn_plan
        if plan is None:
            return
        net = self.net
        sim = net.simulator
        shard_plan = sim.plan
        owned = sim.owned
        for t, k, joiner, neighbors, names in plan.joins:
            self._join_topics[joiner] = names
            if shard_plan.shard_of(joiner) in owned:
                with sim.build_context(f"churn-join:{k}"):
                    sim.schedule(
                        t,
                        lambda _sim, nid=joiner, dial=neighbors: (
                            self._parallel_join(nid, dial)
                        ),
                        label=f"churn-join:{joiner}",
                        shard=joiner,
                    )
            else:
                net.declare_ghost(joiner)
                net.network.set_remote_presence(
                    joiner,
                    t,
                    plan.leave_time_of.get(joiner, float("inf")),
                )
        for t, j, victim in plan.leaves:
            if shard_plan.shard_of(victim) in owned:
                with sim.build_context(f"churn-leave:{j}"):
                    sim.schedule(
                        t,
                        lambda _sim, nid=victim: self._parallel_leave(nid),
                        label=f"churn-leave:{victim}",
                        shard=victim,
                    )
            elif victim not in self._join_topics:
                # Initial-roster ghost churning out elsewhere: its
                # remote endpoint stops being dialable at the plan's
                # leave time (joiner victims set their window above).
                net.network.set_remote_presence(victim, 0.0, t)

    def _parallel_join(self, node_id: str, neighbors: List[str]) -> None:
        self.net.add_peer(node_id=node_id, neighbors=list(neighbors))
        self._joined += 1

    def _parallel_leave(self, node_id: str) -> None:
        self.net.remove_peer(node_id)
        self._left += 1

    def _build_expected_tracker(self) -> None:
        """Turn the churn plan into the per-topic delivery-expectation
        schedule (without churn the static wiring counts are already
        layout-invariant)."""
        plan = self._churn_plan
        if plan is None:
            return
        tracker = ExpectedTracker(self._honest_subscribers)
        for t, _k, _joiner, _neighbors, names in plan.joins:
            tracker.add(DEFAULT_PUBSUB_TOPIC, t, 1)
            for name in names:
                tracker.add(name, t, 1)
        for t, _j, victim in plan.leaves:
            tracker.add(DEFAULT_PUBSUB_TOPIC, t, -1)
            for name, subscribers in self._topic_subscribers.items():
                if name == DEFAULT_PUBSUB_TOPIC:
                    continue
                if victim in subscribers:
                    tracker.add(name, t, -1)
            planned = self._join_topics.get(victim)
            if planned:
                for name in planned:
                    tracker.add(name, t, -1)
        self._expected = tracker

    # -- execution ---------------------------------------------------------------

    def _prepare(self) -> Optional[AdversaryEngine]:
        """Arm every process on an already materialized network and
        flip the chain into replica mode.

        Build steps (registration mining, watchtower delegation, agent
        funding) mutate the chain directly and identically on every
        cell; the chain then switches to replica mode so every runtime
        mutation joins the globally ordered barrier op stream. Blocks
        are produced by :meth:`~repro.eth.chain.Blockchain.replica_apply`
        on the block grid, so the periodic miner stays off."""
        net = self.net
        with quiescent_gc():
            engine = self._arm(mine_blocks=False)
            net.chain.enter_replica_mode(net.simulator.consume_order_key)
        return engine

    def _drive(self) -> Optional[AttackReport]:
        """Drive the run on the windowed kernel behind barrier sync."""
        if self.workers > 1:
            return drive_forked(self, self.workers)
        engine = self._prepare()
        report = drive_in_process(self, engine)
        self.net.stop()
        return report

    # -- result ------------------------------------------------------------------

    def _facts(self) -> Dict[str, object]:
        if self._merged_facts is not None:
            return self._merged_facts
        return super()._facts()

    def _membership_extras(self) -> Dict[str, float]:
        # Each worker holds a private store, so how many events each
        # deduped is a per-partition artifact, not a run fact; only the
        # built sub-trees (a union of index sets) are reported.
        return {}
