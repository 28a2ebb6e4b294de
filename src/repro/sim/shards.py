"""Sharded simulation core: partitioned event queues with lockstep barriers.

Scaling a run past a few thousand peers is bounded by one global event
queue. This module partitions the network into *shards* — groups of
nodes assigned by a :class:`ShardPlan` — and gives each shard its own
event queue, with two execution modes layered on the partition:

:class:`ShardedSimulator`
    A drop-in :class:`~repro.sim.simulator.Simulator` whose queue is
    split per shard. Events carry a shard-affinity key (the node id
    they concern); execution merges the per-shard heaps on the global
    ``(time, sequence)`` order, so a seeded run produces the **same
    fingerprint at any shard count** — invariance by construction, the
    property the tier-1 suite pins. The shards earn their keep as
    accounting (how much traffic crosses shard boundaries, and how much
    of it lands inside the current barrier window) and as the routing
    substrate the parallel runner builds on.

:class:`ParallelShardRunner`
    True parallelism for *shard-confined* workloads: each shard runs
    its own runtime (typically wrapping a private ``Simulator``) on a
    forked worker process, advancing in lockstep **barrier windows**.
    Cross-shard messages emitted during a window are exchanged at the
    barrier and delivered in the next one; the merge order is the
    deterministic ``(time, origin_shard, origin_seq)`` sort, so results
    are independent of worker scheduling. Correctness requires the
    window to be at most the minimum cross-shard latency (the classic
    conservative-PDES bound); the runner raises on violations rather
    than silently reordering causality.

The full Waku-RLN-Relay stack shares global state (chain, contract,
membership store), so scenarios run on the lockstep-merge
:class:`ShardedSimulator`; the window-isolated parallel path is for
workloads expressed through the :class:`ShardWorkload` protocol, e.g.
the relay-fanout benchmark workload below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from hashlib import blake2b
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import SimulationError
from .simulator import (
    EventHandle,
    Handler,
    Simulator,
    _gc_quiesce,
    _gc_restore,
)


def _stable_hash(key: str, salt: bytes = b"") -> int:
    """Process-independent 64-bit hash (built-in ``hash`` is salted)."""
    return int.from_bytes(
        blake2b(key.encode(), key=salt, digest_size=8).digest(), "big"
    )


class ShardPlan:
    """Maps entity keys (node ids) to shard indices.

    Two strategies:

    - ``hash``: stable blake2 of the key, modulo the shard count.
      Stateless, churn-proof, but ignores topology.
    - ``block``: contiguous blocks over an explicit ordered key list —
      the "region" partition when node ids are laid out by topology
      region or topic cluster. Keys outside the list (churn joiners)
      fall back to the hash assignment, so the plan never rejects a
      node.

    ``None`` keys (events that concern no particular node: the miner,
    scenario drivers) map to shard 0.

    ``pins`` forces specific keys onto specific shards regardless of
    strategy — the full-stack parallel mode pins entities that must be
    co-resident with the shard-0 globals (adversary agents driven by
    the engine, watchtower services) so a worker owning shard 0 owns
    everything those globals touch synchronously.
    """

    def __init__(
        self,
        shard_count: int,
        strategy: str = "hash",
        keys: Optional[Sequence[str]] = None,
        pins: Optional[Dict[str, int]] = None,
    ) -> None:
        if shard_count < 1:
            raise SimulationError("shard_count must be >= 1")
        if strategy not in ("hash", "block"):
            raise SimulationError(
                f"unknown shard strategy {strategy!r}; use 'hash' or 'block'"
            )
        self.shard_count = shard_count
        self.strategy = strategy
        self._assignment: Dict[str, int] = {}
        if strategy == "block":
            if not keys:
                raise SimulationError(
                    "block strategy needs the ordered key list"
                )
            block = -(-len(keys) // shard_count)  # ceil division
            for i, key in enumerate(keys):
                self._assignment[key] = min(i // block, shard_count - 1)
        if pins:
            for key, shard in pins.items():
                if not 0 <= shard < shard_count:
                    raise SimulationError(
                        f"pin {key!r} -> {shard} outside [0, {shard_count})"
                    )
                self._assignment[key] = shard

    @classmethod
    def hashed(cls, shard_count: int) -> "ShardPlan":
        return cls(shard_count, strategy="hash")

    @classmethod
    def blocked(
        cls,
        keys: Sequence[str],
        shard_count: int,
        pins: Optional[Dict[str, int]] = None,
    ) -> "ShardPlan":
        return cls(shard_count, strategy="block", keys=keys, pins=pins)

    def shard_of(self, key: Optional[str]) -> int:
        if key is None:
            return 0
        if self.shard_count == 1:
            return 0
        assigned = self._assignment.get(key)
        if assigned is not None:
            return assigned
        return _stable_hash(key) % self.shard_count


class ShardedSimulator(Simulator):
    """Per-shard event queues merged on the global ``(time, seq)`` order.

    Scheduling routes every event onto its shard's heap (``shard=`` is
    the affinity key resolved through the :class:`ShardPlan`);
    execution repeatedly pops the globally earliest event across all
    shard heads. Because ``sequence`` comes from one shared counter,
    the merged order is *exactly* the order a single-queue
    :class:`Simulator` would produce — fingerprints are invariant in
    the shard count and equal to the unsharded kernel's.

    Barrier windows of ``window`` simulated seconds structure the
    cross-shard accounting exposed by :meth:`shard_stats`:
    ``cross_shard_scheduled`` counts events one shard scheduled onto
    another, and ``cross_shard_intra_window`` the subset that lands
    inside the *current* window — the events a window-isolated parallel
    execution would have to defer, i.e. the gap between this workload
    and perfect shard confinement.
    """

    def __init__(
        self,
        seed: int = 0,
        shards: int = 1,
        plan: Optional[ShardPlan] = None,
        window: float = 0.25,
    ) -> None:
        super().__init__(seed=seed)
        if window <= 0:
            raise SimulationError("barrier window must be positive")
        self.plan = plan if plan is not None else ShardPlan.hashed(shards)
        if self.plan.shard_count != shards:
            raise SimulationError(
                f"plan covers {self.plan.shard_count} shards, kernel "
                f"asked for {shards}"
            )
        self.shard_count = shards
        self.window = window
        self._queues: List[list] = [[] for _ in range(shards)]
        self._current_shard: Optional[int] = None
        self._window_end = window
        self._events_by_shard = [0] * shards
        self._cross_scheduled = 0
        self._cross_intra_window = 0
        self._barriers = 0
        self._streams: Dict[object, random.Random] = {}
        self._stream_salt = blake2b(
            str(seed).encode(), digest_size=16
        ).digest()

    # -- rng streams -----------------------------------------------------------

    def stream(self, key: object) -> random.Random:
        """Per-entity random stream derived from the root seed.

        Unlike the shared :attr:`rng`, an entity's stream yields the
        same draws no matter which shard it runs on or how other
        entities' events interleave — the property shard-confined
        parallel workloads need for shard-count-invariant results.
        """
        stream = self._streams.get(key)
        if stream is None:
            stream = random.Random(
                _stable_hash(repr(key), salt=self._stream_salt)
            )
            self._streams[key] = stream
        return stream

    # -- scheduling ------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        handler: Handler,
        label: str = "",
        shard: Optional[str] = None,
    ) -> EventHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        event = self._checkout(self.now + delay, handler)
        dst = self.plan.shard_of(shard)
        heappush(self._queues[dst], (event.time, event.sequence, event))
        src = self._current_shard
        if src is not None and src != dst:
            self._cross_scheduled += 1
            if event.time < self._window_end:
                self._cross_intra_window += 1
        return EventHandle(self, event)

    def schedule_port(
        self,
        delay: float,
        port: str,
        payload: object,
        label: str = "",
        shard: Optional[str] = None,
    ) -> None:
        """Generic form: a closure event on the owning shard's queue
        (this kernel's queues hold record entries only)."""
        handler = self._ports.get(port)
        if handler is None:
            raise SimulationError(f"unknown port {port!r}")
        self.schedule(delay, lambda _sim: handler(payload), label, shard)

    def _note_cancelled(self) -> None:
        self._cancelled_pending += 1
        total = sum(len(queue) for queue in self._queues)
        if (
            self._cancelled_pending >= self.COMPACT_MIN_CANCELLED
            and self._cancelled_pending * 2 >= total
        ):
            for queue in self._queues:
                live = [e for e in queue if not e[2].cancelled]
                for entry in queue:
                    if entry[2].cancelled:
                        self._recycle(entry[2])
                queue[:] = live
                heapify(queue)
            self._cancelled_pending = 0

    # -- execution ----------------------------------------------------------------

    def queue_depth(self) -> int:
        return (
            sum(len(queue) for queue in self._queues)
            - self._cancelled_pending
        )

    def _min_shard(self) -> int:
        """Index of the shard holding the globally earliest live event,
        or -1 when every queue is empty. Pops cancelled heads on the
        way (they must not win the merge)."""
        best = -1
        best_key: Optional[tuple] = None
        for idx, queue in enumerate(self._queues):
            while queue and queue[0][2].cancelled:
                entry = heappop(queue)
                self._cancelled_pending -= 1
                self._recycle(entry[2])
            if queue:
                key = (queue[0][0], queue[0][1])
                if best_key is None or key < best_key:
                    best_key = key
                    best = idx
        return best

    def step(self) -> bool:
        idx = self._min_shard()
        if idx < 0:
            return False
        time, _seq, event = heappop(self._queues[idx])
        if time < self.now:
            raise SimulationError("event queue went backwards in time")
        while time >= self._window_end:
            self._window_end += self.window
            self._barriers += 1
        self.now = time
        handler = event.handler
        self._recycle(event)
        self._current_shard = idx
        try:
            handler(self)
        finally:
            self._current_shard = None
        self.events_processed += 1
        self._events_by_shard[idx] += 1
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 1_000_000_000,
    ) -> None:
        processed = 0
        _gc_quiesce()
        try:
            # step() inlined: the merge scan (_min_shard) is the
            # per-event overhead sharding adds, so pay it once per
            # event, not twice.
            while processed < max_events:
                idx = self._min_shard()
                if idx < 0:
                    break
                queue = self._queues[idx]
                time, _seq, event = queue[0]
                if until is not None and time > until:
                    break
                heappop(queue)
                if time < self.now:
                    raise SimulationError(
                        "event queue went backwards in time"
                    )
                while time >= self._window_end:
                    self._window_end += self.window
                    self._barriers += 1
                self.now = time
                handler = event.handler
                self._recycle(event)
                self._current_shard = idx
                try:
                    handler(self)
                finally:
                    self._current_shard = None
                self.events_processed += 1
                self._events_by_shard[idx] += 1
                processed += 1
        finally:
            _gc_restore()
        if processed >= max_events:
            idx = self._min_shard()
            if idx >= 0 and (
                until is None or self._queues[idx][0][0] <= until
            ):
                raise SimulationError(
                    f"event budget exhausted ({max_events} events) with "
                    f"work pending at t={self._queues[idx][0][0]:.3f}; "
                    "raise max_events or shrink the workload"
                )
        if until is not None and self.now < until:
            self.now = until

    # -- accounting ---------------------------------------------------------------

    def shard_stats(self) -> Dict[str, object]:
        """Partition quality of the run so far (NOT part of scenario
        fingerprints: the numbers legitimately depend on the shard
        count)."""
        total = self.events_processed
        cross = self._cross_scheduled
        return {
            "shards": self.shard_count,
            "window": self.window,
            "barriers": self._barriers,
            "events_by_shard": list(self._events_by_shard),
            "cross_shard_scheduled": cross,
            "cross_shard_intra_window": self._cross_intra_window,
            "cross_shard_fraction": cross / total if total else 0.0,
        }


# -- window-isolated parallel execution ------------------------------------------


@dataclass(frozen=True)
class CrossShardPacket:
    """A message crossing shard boundaries at a barrier.

    ``(time, origin_shard, origin_seq)`` totally orders packets — the
    merge key that makes parallel execution deterministic. ``payload``
    must be picklable when the runner forks workers.
    """

    time: float
    origin_shard: int
    origin_seq: int
    dst_shard: int
    dst_key: str
    payload: object

    @property
    def sort_key(self) -> tuple:
        return (self.time, self.origin_shard, self.origin_seq)


#: Builds one shard's runtime: ``build(shard_index, shard_count, seed)``.
#: The runtime must expose ``run_window(t_end, inbox) -> list[packet]``
#: and ``snapshot() -> dict`` (picklable summary, merged by the caller).
ShardRuntimeFactory = Callable[[int, int, int], object]


class ParallelShardRunner:
    """Advance shard runtimes in lockstep barrier windows.

    Serial mode runs every runtime in-process (always available, the
    reference semantics); ``processes=True`` forks one persistent
    worker per shard and drives them over pipes — same packets, same
    merge order, same results, just overlapping wall-clock. On hosts
    without the ``fork`` start method the runner silently falls back
    to serial execution.

    Causality: a packet emitted during window ``(t0, t1]`` must be
    timestamped after ``t1`` (guaranteed when every cross-shard latency
    is at least the window length). Violations raise
    :class:`~repro.errors.SimulationError` instead of warping time.
    """

    def __init__(
        self,
        build: ShardRuntimeFactory,
        shard_count: int,
        seed: int = 0,
        window: float = 0.25,
    ) -> None:
        if shard_count < 1:
            raise SimulationError("shard_count must be >= 1")
        if window <= 0:
            raise SimulationError("barrier window must be positive")
        self._build = build
        self.shard_count = shard_count
        self.seed = seed
        self.window = window
        self.barriers = 0
        self.packets_exchanged = 0

    def _route(
        self, outbox: List[CrossShardPacket], t_end: float
    ) -> List[List[CrossShardPacket]]:
        inboxes: List[List[CrossShardPacket]] = [
            [] for _ in range(self.shard_count)
        ]
        for packet in sorted(outbox, key=lambda p: p.sort_key):
            if not 0 <= packet.dst_shard < self.shard_count:
                raise SimulationError(
                    f"packet routed to shard {packet.dst_shard} of "
                    f"{self.shard_count}"
                )
            if packet.time < t_end:
                raise SimulationError(
                    f"causality violation: packet for t={packet.time:.6f} "
                    f"crossed the barrier at t={t_end:.6f}; shrink the "
                    "window below the minimum cross-shard latency"
                )
            inboxes[packet.dst_shard].append(packet)
        self.packets_exchanged += len(outbox)
        return inboxes

    def run(
        self, until: float, processes: bool = False
    ) -> List[Dict[str, object]]:
        """Run every shard to simulated time ``until``; returns the
        per-shard ``snapshot()`` dicts in shard order."""
        if until <= 0:
            raise SimulationError("until must be positive")
        if processes and self._fork_available():
            return self._run_forked(until)
        return self._run_serial(until)

    @staticmethod
    def _fork_available() -> bool:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()

    def _run_serial(self, until: float) -> List[Dict[str, object]]:
        runtimes = [
            self._build(i, self.shard_count, self.seed)
            for i in range(self.shard_count)
        ]
        inboxes: List[List[CrossShardPacket]] = [
            [] for _ in range(self.shard_count)
        ]
        t = 0.0
        while t < until:
            t_end = min(t + self.window, until)
            outbox: List[CrossShardPacket] = []
            for idx, runtime in enumerate(runtimes):
                outbox.extend(runtime.run_window(t_end, inboxes[idx]))
            inboxes = self._route(outbox, t_end)
            self.barriers += 1
            t = t_end
        return [runtime.snapshot() for runtime in runtimes]

    def _run_forked(self, until: float) -> List[Dict[str, object]]:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        pipes = []
        workers = []
        try:
            for idx in range(self.shard_count):
                parent_conn, child_conn = ctx.Pipe()
                worker = ctx.Process(
                    target=_shard_worker,
                    args=(
                        child_conn,
                        self._build,
                        idx,
                        self.shard_count,
                        self.seed,
                    ),
                    daemon=True,
                )
                worker.start()
                child_conn.close()
                pipes.append(parent_conn)
                workers.append(worker)
            inboxes: List[List[CrossShardPacket]] = [
                [] for _ in range(self.shard_count)
            ]
            t = 0.0
            while t < until:
                t_end = min(t + self.window, until)
                for idx, conn in enumerate(pipes):
                    conn.send(("window", t_end, inboxes[idx]))
                outbox: List[CrossShardPacket] = []
                for conn in pipes:
                    reply = conn.recv()
                    if reply[0] == "error":
                        raise SimulationError(
                            f"shard worker failed: {reply[1]}"
                        )
                    outbox.extend(reply[1])
                inboxes = self._route(outbox, t_end)
                self.barriers += 1
                t = t_end
            snapshots: List[Dict[str, object]] = []
            for conn in pipes:
                conn.send(("finish",))
                reply = conn.recv()
                if reply[0] == "error":
                    raise SimulationError(
                        f"shard worker failed: {reply[1]}"
                    )
                snapshots.append(reply[1])
            return snapshots
        finally:
            for conn in pipes:
                conn.close()
            for worker in workers:
                worker.join(timeout=5)
                if worker.is_alive():
                    worker.terminate()


def _shard_worker(conn, build, shard_index, shard_count, seed) -> None:
    """Worker loop: build the runtime once, then serve window commands."""
    try:
        runtime = build(shard_index, shard_count, seed)
        while True:
            command = conn.recv()
            if command[0] == "window":
                conn.send(("ok", runtime.run_window(command[1], command[2])))
            elif command[0] == "finish":
                conn.send(("ok", runtime.snapshot()))
                return
    except Exception as exc:  # surfaced to the driver, not swallowed
        try:
            conn.send(("error", repr(exc)))
        except Exception:
            pass


# -- reference shard-confined workload ---------------------------------------------


class UniformRelayWorkload:
    """Shard-confined relay fanout: the parallel runner's benchmark load.

    ``node_count`` nodes each publish every ``interval`` seconds
    (per-node phase and destinations drawn from per-node streams, so
    results are invariant in the shard count); every publish fans out
    to ``fanout`` uniformly random nodes with fixed ``latency``.
    Deliveries to local nodes are simulated directly on the shard's
    private :class:`Simulator`; the rest cross the barrier as
    :class:`CrossShardPacket`. Requires ``latency >= window``.
    """

    def __init__(
        self,
        node_count: int,
        interval: float = 1.0,
        fanout: int = 4,
        latency: float = 0.3,
    ) -> None:
        self.node_count = node_count
        self.interval = interval
        self.fanout = fanout
        self.latency = latency

    def build(
        self, shard_index: int, shard_count: int, seed: int
    ) -> "_UniformRelayRuntime":
        return _UniformRelayRuntime(self, shard_index, shard_count, seed)


class _UniformRelayRuntime:
    def __init__(
        self,
        workload: UniformRelayWorkload,
        shard_index: int,
        shard_count: int,
        seed: int,
    ) -> None:
        self._w = workload
        self._shard = shard_index
        self._shards = shard_count
        salt = blake2b(str(seed).encode(), digest_size=16).digest()
        self.sim = Simulator(seed=seed)
        self._seq = 0
        block = -(-workload.node_count // shard_count)
        local = range(
            shard_index * block,
            min((shard_index + 1) * block, workload.node_count),
        )
        self.delivered: Dict[int, int] = {node: 0 for node in local}
        self.published = 0
        self._outbox: List[CrossShardPacket] = []
        # One persistent stream per local node: all of a node's draws
        # (phase, then fanout targets per publish) come from it in
        # publish order, which is what makes the workload's results
        # independent of the shard count.
        self._streams: Dict[int, random.Random] = {
            node: random.Random(_stable_hash(f"node-{node}", salt=salt))
            for node in local
        }
        for node in local:
            self.sim.schedule(
                self._streams[node].uniform(0, workload.interval),
                lambda sim, n=node: self._publish(n),
                label=f"publish:{node}",
            )

    def _shard_of(self, node: int) -> int:
        block = -(-self._w.node_count // self._shards)
        return min(node // block, self._shards - 1)

    def _publish(self, node: int) -> None:
        w = self._w
        stream = self._streams[node]
        self.published += 1
        for _ in range(w.fanout):
            target = stream.randrange(w.node_count)
            if self._shard_of(target) == self._shard:
                self.sim.schedule(
                    w.latency,
                    lambda sim, n=target: self._deliver(n),
                    label=f"deliver:{target}",
                )
            else:
                self._seq += 1
                self._outbox.append(
                    CrossShardPacket(
                        time=self.sim.now + w.latency,
                        origin_shard=self._shard,
                        origin_seq=self._seq,
                        dst_shard=self._shard_of(target),
                        dst_key=str(target),
                        payload=None,
                    )
                )
        self.sim.schedule(
            w.interval,
            lambda sim, n=node: self._publish(n),
            label=f"publish:{node}",
        )

    def run_window(self, t_end: float, inbox) -> List[CrossShardPacket]:
        for packet in inbox:
            self.sim.schedule_at(
                packet.time,
                lambda sim, p=packet: self._deliver(int(p.dst_key)),
                label=f"deliver:{packet.dst_key}",
            )
        self._outbox = []
        self.sim.run(until=t_end)
        return self._outbox

    def _deliver(self, node: int) -> None:
        self.delivered[node] += 1

    def snapshot(self) -> Dict[str, object]:
        return {
            "shard": self._shard,
            "published": self.published,
            "delivered": dict(self.delivered),
        }
