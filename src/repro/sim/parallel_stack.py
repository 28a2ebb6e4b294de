"""Window-isolated simulation kernel for full-stack parallel sharding.

The serial :class:`~repro.sim.simulator.Simulator` keeps a single
global event order, so it can never execute two shards concurrently.
This module provides the kernel that can: a :class:`ShardPlan` maps
node ids to shards, and :class:`WindowedStackSimulator` executes each
barrier window's events *per shard independently*, which is only sound
because of three invariants it enforces:

1. **Partition-invariant event order.** Every event is keyed
   ``(time, origin, seq)`` where ``origin`` is the *entity* (node id)
   whose handler scheduled it — inherited from the executing event's
   context — and ``seq`` a per-origin counter. An entity's events
   execute only in events destined to it, which run on exactly one
   shard in key order; by induction its counter values are identical
   at any shard/worker count, so the key is a total order every
   partition agrees on. (The serial kernel's global sequence counter,
   by contrast, depends on the interleaving of every entity's events.)

2. **Window isolation.** Execution advances in barrier windows
   ``[t0, t1)`` with ``t1 - t0 <=`` the minimum network latency: any
   cross-shard event scheduled inside a window lands at or past the
   window's end (checked, not assumed — a violation raises). Within a
   window, shards therefore cannot affect each other, and events for
   shards owned by other workers are exported as deterministic
   ``(time, origin, seq)``-keyed packets exchanged at the barrier.

3. **Per-entity RNG streams.** :meth:`entity_rng` gives each entity a
   private stream seeded from the root seed, so an entity's draws
   depend only on its own history, not on which shard interleaves
   with it.

Cross-worker events cannot carry closures (they cross a pipe), so
network delivery registers a *port* — a named, picklable-payload
handler — and schedules through :meth:`schedule_port`. For an owned
destination that degenerates to a plain local schedule with the same
key, which is what makes a one-worker run bit-identical to an
N-worker run.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..crypto.digests import blake2b
from ..errors import SimulationError
from .simulator import Handler, PortItem, Simulator, _gc_quiesce, _gc_restore


def _stable_hash(key: str, salt: bytes = b"") -> int:
    """Process-independent 64-bit hash (built-in ``hash`` is salted)."""
    return int.from_bytes(
        blake2b(key.encode(), key=salt, digest_size=8).digest(), "big"
    )


class ShardPlan:
    """Maps entity keys (node ids) to shard indices.

    ``keys`` is an optional ordered key list cut into contiguous
    blocks — the "region" partition when node ids are laid out by
    topology region or topic cluster. Every other key (churn joiners,
    or all of them without a list) gets a stable blake2 hash of the
    key, modulo the shard count, so the plan never rejects a node.

    ``None`` keys (events that concern no particular node: the miner,
    scenario drivers) map to shard 0.

    ``pins`` forces specific keys onto specific shards — the
    full-stack parallel mode pins entities that must be co-resident
    with the shard-0 globals (adversary agents driven by the engine,
    watchtower services) so a worker owning shard 0 owns everything
    those globals touch synchronously.
    """

    def __init__(
        self,
        shard_count: int,
        keys: Sequence[str] = (),
        pins: Optional[Dict[str, int]] = None,
    ) -> None:
        if shard_count < 1:
            raise SimulationError("shard_count must be >= 1")
        self.shard_count = shard_count
        self._assignment: Dict[str, int] = {}
        block = -(-len(keys) // shard_count)  # ceil division
        for i, key in enumerate(keys):
            self._assignment[key] = min(i // block, shard_count - 1)
        for key, shard in (pins or {}).items():
            if not 0 <= shard < shard_count:
                raise SimulationError(
                    f"pin {key!r} -> {shard} outside [0, {shard_count})"
                )
            self._assignment[key] = shard

    def shard_of(self, key: Optional[str]) -> int:
        if key is None:
            return 0
        if self.shard_count == 1:
            return 0
        assigned = self._assignment.get(key)
        if assigned is not None:
            return assigned
        return _stable_hash(key) % self.shard_count


#: Origin key of everything scheduled outside any entity's handler:
#: build-phase wiring, global drivers (adversary engine, scenario
#: faults), and their descendants. Executes on shard 0's owner.
BUILD_ORIGIN = "build"

#: One cross-worker event: ``(dst_shard, dst_key, time, origin, seq,
#: port, payload, label)``. ``dst_key`` is the destination entity id —
#: the context the handler must execute under, so descendants
#: scheduled by the receiving entity inherit *its* origin on every
#: worker alike. Plain tuple so it pickles across worker pipes.
PortPacket = Tuple[int, Optional[str], float, str, int, str, object, str]


class _WRecord:
    """One scheduled event of the windowed kernel: ``handler(payload)``,
    where a closure event's payload is the simulator itself."""

    __slots__ = ("handler", "payload", "label", "shard", "ckey", "time")

    def __init__(
        self,
        handler: Callable[[object], None],
        payload: object,
        label: str,
        shard: int,
        ckey: str,
        time: float,
    ) -> None:
        self.handler = handler
        self.payload = payload
        self.label = label
        self.shard = shard
        #: Context key: the entity this event is *about* (its shard
        #: affinity key), falling back to its origin — what
        #: descendants scheduled from its handler inherit as origin.
        self.ckey = ckey
        self.time = time


class WindowedStackSimulator(Simulator):
    """Deterministic window-isolated kernel (see module docstring).

    The heap holds ``(time, origin, seq, record)`` — the
    partition-invariant order. ``owned`` starts as all shards; a
    forked worker narrows it with :meth:`restrict_to`, after which
    events for foreign shards can only be produced through
    :meth:`schedule_port` and are exported for the barrier exchange.
    """

    def __init__(
        self,
        seed: int = 0,
        plan: Optional[ShardPlan] = None,
        window: float = 0.25,
    ) -> None:
        super().__init__(seed=seed)
        if window <= 0:
            raise SimulationError("barrier window must be positive")
        self.plan = plan if plan is not None else ShardPlan(1)
        self.window = window
        self.owned: FrozenSet[int] = frozenset(
            range(self.plan.shard_count)
        )
        self._heap: List[Tuple[float, str, int, _WRecord]] = []
        self._context = BUILD_ORIGIN
        self._exec_shard = 0
        self._origin_seq: Dict[str, int] = {}
        self._exports: List[PortPacket] = []
        #: port -> shard key -> the events' label, built once per pair.
        self._labels: Dict[str, Dict[Optional[str], str]] = {}
        self._running = False
        self._window_end = 0.0
        self._salt = _stable_hash(f"entity-rng:{seed}").to_bytes(8, "big")
        self._streams: Dict[str, random.Random] = {}
        self.barriers = 0
        self.events_by_shard = [0] * self.plan.shard_count
        self.cross_shard_scheduled = 0
        #: Optional list; when set, run_window appends
        #: ``(time, origin, seq, label, shard)`` per executed event —
        #: the equivalence debugging aid (diff two modes' streams).
        self.trace: Optional[List[Tuple]] = None

    # -- rng ------------------------------------------------------------------

    def entity_rng(self, key: object) -> random.Random:
        skey = str(key)
        stream = self._streams.get(skey)
        if stream is None:
            stream = random.Random(_stable_hash(skey, self._salt))
            self._streams[skey] = stream
        return stream

    def ephemeral_rng(self, key: object) -> random.Random:
        """Seeded exactly like :meth:`entity_rng` but not retained.

        For one-shot roster-wide draws (one coin per peer in the
        roster): every worker walks the whole roster, and caching a
        Mersenne state (~2.5 KiB) per entity would put an O(all peers)
        term back into per-worker RSS that build-per-worker exists to
        remove. Draw values are bit-identical to ``entity_rng`` — same
        seed derivation — provided all draws from the key finish
        before anyone requests it through ``entity_rng`` (a cached
        stream, if one exists, is returned so mixed use stays sound in
        that direction)."""
        skey = str(key)
        stream = self._streams.get(skey)
        if stream is not None:
            return stream
        return random.Random(_stable_hash(skey, self._salt))

    @property
    def entity_isolated(self) -> bool:
        return True

    @property
    def executing(self) -> bool:
        return self._running

    # -- ordering keys -----------------------------------------------------------

    def _next_seq(self, origin: str) -> int:
        seq = self._origin_seq.get(origin, 0)
        self._origin_seq[origin] = seq + 1
        return seq

    def consume_order_key(self) -> Tuple[float, str, int]:
        """A fresh ``(time, origin, seq)`` key in the executing
        context — the chain replica's op keys, drawn from the same
        per-origin counter as event scheduling so op order and event
        order never collide and both are partition-invariant."""
        origin = self._context
        return (self.now, origin, self._next_seq(origin))

    @contextmanager
    def build_context(self, key: object):
        """Attribute build-phase scheduling to one entity's origin.

        Build-per-worker only works if build-time keys are
        partition-invariant: a worker that builds 3 of 8 shards must
        hand each entity the exact ``(origin, seq)`` keys it would get
        in a full build. Wrapping an entity's construction in its own
        context pins its build-time schedules and
        :meth:`consume_order_key` draws to a per-entity counter, so
        skipping the *other* entities' builds cannot shift them. Only
        meaningful outside execution (during a window the executing
        event's context governs); nesting restores the outer key.
        """
        previous = self._context
        self._context = str(key)
        try:
            yield
        finally:
            self._context = previous

    # -- ports ---------------------------------------------------------------------

    def schedule_port(self, port: str, items: Sequence[PortItem]) -> None:
        """Schedule ``port(payload)`` per ``(delay, payload, shard)``
        item, in order — the cross-worker-safe form. An event's label is
        ``"<port name after its last dot>:<shard>"`` (``deliver:peer-3``).

        For an owned destination shard an item is exactly a local
        :meth:`schedule` of the port handler under the same key; for a
        foreign shard the event is exported and injected by the owning
        worker at the barrier, again under the same key — so ownership
        never changes the execution order.
        """
        handler = self._ports.get(port)
        if handler is None:
            raise SimulationError(f"unknown port {port!r}")
        origin = self._context
        # The per-origin counter and the plan's assignment are read
        # inline, and causality is checked only off-shard.
        seq = self._origin_seq.get(origin, 0)
        assignment = self.plan._assignment
        labels = self._labels.setdefault(port, {})
        for delay, payload, shard in items:
            if delay < 0:
                raise SimulationError(f"cannot schedule {delay}s in the past")
            time = self.now + delay
            self._origin_seq[origin] = seq + 1
            dst = assignment.get(shard)
            if dst is None:
                dst = self.plan.shard_of(shard)
            label = labels.get(shard)
            if label is None:
                label = labels[shard] = f"{port.rpartition('.')[2]}:{shard}"
            if dst != self._exec_shard:
                self._check_causality(dst, time, label)
            if dst in self.owned:
                ckey = shard if shard is not None else origin
                record = _WRecord(handler, payload, label, dst, ckey, time)
                heappush(self._heap, (time, origin, seq, record))
            else:
                self._exports.append(
                    (dst, shard, time, origin, seq, port, payload, label)
                )
            seq += 1

    def inject(self, packets: List[PortPacket]) -> None:
        """Accept barrier packets exported by other workers."""
        for dst, dst_key, time, origin, seq, port, payload, label in packets:
            if dst not in self.owned:
                raise SimulationError(
                    f"packet for shard {dst} routed to wrong worker"
                )
            handler = self._ports[port]
            ckey = dst_key if dst_key is not None else origin
            record = _WRecord(handler, payload, label, dst, ckey, time)
            heappush(self._heap, (time, origin, seq, record))

    def drain_exports(self) -> List[PortPacket]:
        exports, self._exports = self._exports, []
        return exports

    # -- scheduling ------------------------------------------------------------------

    def _check_causality(
        self, dst_shard: int, time: float, label: str
    ) -> None:
        if not self._running or dst_shard == self._exec_shard:
            return
        self.cross_shard_scheduled += 1
        if time < self._window_end:
            raise SimulationError(
                f"cross-shard event {label!r} at t={time:.6f} lands "
                f"inside the current window (ends {self._window_end:.6f}); "
                "the barrier window must not exceed the minimum "
                "network latency"
            )

    def schedule(
        self,
        delay: float,
        handler: Handler,
        label: str = "",
        shard: Optional[str] = None,
    ) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        time = self.now + delay
        origin = self._context
        seq = self._next_seq(origin)
        dst = self.plan.shard_of(shard)
        self._check_causality(dst, time, label)
        if dst not in self.owned:
            raise SimulationError(
                f"closure event {label!r} targets foreign shard {dst}; "
                "cross-worker events must go through schedule_port"
            )
        ckey = shard if shard is not None else origin
        record = _WRecord(handler, self, label, dst, ckey, time)
        heappush(self._heap, (time, origin, seq, record))

    # -- ownership ---------------------------------------------------------------------

    def restrict_to(self, owned: FrozenSet[int]) -> None:
        """Narrow this (forked) worker to a subset of the shards,
        dropping already-queued events owned elsewhere (the owning
        worker has identical copies in its own heap)."""
        if not owned <= self.owned:
            raise SimulationError("can only narrow ownership")
        self.owned = frozenset(owned)
        self._heap = [
            entry for entry in self._heap if entry[3].shard in self.owned
        ]
        self._heap.sort()

    # -- execution ---------------------------------------------------------------------

    def run_window(self, t_end: float, final: bool = False) -> None:
        """Execute every owned event with ``time < t_end`` (``<=``
        for the final window, matching ``Simulator.run(until)``'s
        inclusive bound), then advance the clock to the barrier."""
        if t_end < self.now:
            raise SimulationError("window end precedes current time")
        heap = self._heap
        self._running = True
        self._window_end = t_end
        events_by_shard = self.events_by_shard
        _gc_quiesce()
        try:
            while heap:
                time = heap[0][0]
                if time > t_end or (time == t_end and not final):
                    break
                time, _origin, _seq, record = heappop(heap)
                if self.trace is not None:
                    self.trace.append(
                        (time, _origin, _seq, record.label, record.shard)
                    )
                if time < self.now:
                    raise SimulationError(
                        "event queue went backwards in time"
                    )
                self.now = time
                self._exec_shard = record.shard
                self._context = record.ckey
                record.handler(record.payload)
                self.events_processed += 1
                events_by_shard[record.shard] += 1
        finally:
            _gc_restore()
            self._context = BUILD_ORIGIN
            self._exec_shard = 0
        self.now = max(self.now, t_end)
        self.barriers += 1

    def run(self, until: Optional[float] = None, max_events: int = 0) -> None:
        raise SimulationError(
            "the windowed kernel runs in explicit barrier windows; "
            "drive it with run_window()"
        )

    # -- accounting ---------------------------------------------------------------------

    def shard_stats(self) -> Dict[str, object]:
        """Coupling accounting: barriers run, events per shard, and
        events scheduled onto another shard (an intra-window one
        raises instead, so every counted one crossed a barrier)."""
        total = max(1, self.events_processed)
        return {
            "shards": self.plan.shard_count,
            "window": self.window,
            "barriers": self.barriers,
            "events_by_shard": list(self.events_by_shard),
            "cross_shard_scheduled": self.cross_shard_scheduled,
            "cross_shard_fraction": self.cross_shard_scheduled / total,
        }
