"""Discrete-event simulation kernel.

Everything time-dependent in the reproduction — message propagation,
GossipSub heartbeats, epoch progression, block mining, modeled zkSNARK
latencies — runs on this kernel: a priority queue of timestamped events
consumed in order while a virtual clock advances. Simulations are fully
deterministic given a seed, and simulated seconds are free, so a 13 s
block interval or a 0.5 s proving delay costs nothing in wall-clock.

Every queued event is one heap tuple, ``(time, sequence, handler,
argument)``, dispatched as ``handler(argument)``: a closure event
(:meth:`Simulator.schedule`) passes the simulator, a *port event*
(:meth:`Simulator.schedule_port`; network delivery, the bulk of all
events) its payload. The unique sequence keeps heap comparisons on the
``(time, sequence)`` prefix, in C. A queued event always fires; a
periodic task stops by dropping its handler, so its next tick is a
no-op.
"""

from __future__ import annotations

import gc
import itertools
import random
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..errors import SimulationError

#: An event handler; receives the simulator so it can schedule follow-ups.
Handler = Callable[["Simulator"], None]

#: One port event: ``(delay, payload, shard)``; ``shard`` is the affinity
#: key the windowed kernel routes by (the serial kernel ignores it).
PortItem = Tuple[float, object, Optional[str]]


# -- GC quiescence --------------------------------------------------------
#
# A large simulation holds millions of live, long-lived objects (peers,
# meshes, caches) while the event loop allocates constantly (packets,
# closures); the collector's full generations then rescan the whole
# graph every few hundred thousand allocations for nothing — the
# workload is essentially cycle-free. Freezing the pre-run object graph
# and widening the thresholds while the loop runs removes that rescan
# without changing what is ever collected. ``freeze``/``unfreeze`` move
# generation lists around (no scan), so entering is cheap enough for
# per-window calls from parallel workers.

_GC_DEPTH = 0
_GC_SAVED: Optional[tuple] = None


class quiescent_gc:
    """Context manager: calm the collector around a large build+run.

    Re-entrant; the innermost exit restores the caller's thresholds.
    Scenario runners wrap their whole build+run in this so the setup
    phase (millions of allocations into a growing live graph) gets the
    same treatment as the event loop, which quiesces itself.
    """

    def __enter__(self) -> "quiescent_gc":
        _gc_quiesce()
        return self

    def __exit__(self, *exc_info: object) -> None:
        _gc_restore()


def _gc_quiesce() -> None:
    global _GC_DEPTH, _GC_SAVED
    _GC_DEPTH += 1
    if _GC_DEPTH > 1 or not gc.isenabled():
        return
    _GC_SAVED = gc.get_threshold()
    gc.freeze()
    gc.set_threshold(100_000, 50, 100)


def _gc_restore() -> None:
    global _GC_DEPTH, _GC_SAVED
    _GC_DEPTH -= 1
    if _GC_DEPTH > 0 or _GC_SAVED is None:
        return
    gc.set_threshold(*_GC_SAVED)
    _GC_SAVED = None
    gc.unfreeze()


class _Periodic:
    """One :meth:`Simulator.schedule_periodic` task: the task itself is
    the queued handler (no bound method per pending tick), its bound
    ``cancel`` the caller's cancel."""

    __slots__ = ("interval", "handler", "label", "jitter", "draw", "shard")

    def __call__(self, sim: "Simulator") -> None:
        if self.handler is None:  # stopped
            return
        self.handler(sim)
        if self.handler is not None:
            jitter = self.jitter
            delay = self.interval + (
                self.draw.uniform(0, jitter) if jitter else 0
            )
            sim.schedule(delay, self, self.label, shard=self.shard)

    def cancel(self) -> None:
        self.handler = None


class Simulator:
    """A deterministic discrete-event simulator."""

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self.rng = random.Random(seed)
        #: Heap of ``(time, sequence, handler, argument)``.
        self._queue: list = []
        self._ports: Dict[str, Callable[[object], None]] = {}
        self._sequence = itertools.count()
        self.events_processed = 0

    # -- rng streams -----------------------------------------------------------

    def entity_rng(self, key: object) -> random.Random:
        """The stream an *entity's hot path* should draw from.

        Protocol code (routers, peers, the network's loss/latency
        draws) calls this on every send and every maintenance tick.
        The serial kernel keeps it on the shared :attr:`rng` —
        bit-identical to the historical behaviour — while the
        window-isolated parallel kernel returns a private per-entity
        stream so an entity's draws do not depend on which shard or
        worker executes it.
        """
        return self.rng

    @property
    def entity_isolated(self) -> bool:
        """True when this kernel gives each entity a private RNG
        stream and enforces window isolation (the parallel full-stack
        kernel); the network then commits only the acting entity's
        half of a runtime link change synchronously."""
        return False

    @property
    def executing(self) -> bool:
        """True while the kernel is inside its event loop — i.e. the
        caller is an event handler rather than build-phase wiring. The
        base kernel never needs the distinction."""
        return False

    @contextmanager
    def build_context(self, key: object):
        """Attribute build-phase work to entity ``key``.

        A no-op here: only the window-isolated parallel kernel keys
        build-time scheduling to per-entity origins (so a worker that
        builds a subset of the entities reproduces their exact event
        keys). Builders wrap each entity's construction in this
        unconditionally and the serial kernel ignores it.
        """
        yield

    # -- scheduling ------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        handler: Handler,
        label: str = "",
        shard: Optional[str] = None,
    ) -> None:
        """Run ``handler`` after ``delay`` simulated seconds.

        ``shard`` is an optional affinity hint (typically the node id
        the event concerns); the base kernel ignores it, the windowed
        kernel uses it to route the event onto the owning shard.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        time = self.now + delay
        heappush(self._queue, (time, next(self._sequence), handler, self))

    def register_port(
        self, name: str, handler: Callable[[object], None]
    ) -> None:
        """Name a handler for :meth:`schedule_port` (at build time: on
        the windowed kernel identically on every worker, pre-fork)."""
        if name in self._ports:
            raise SimulationError(f"port {name!r} already registered")
        self._ports[name] = handler

    def schedule_port(self, port: str, items: Sequence[PortItem]) -> None:
        """For each ``(delay, payload, shard)`` of ``items``, in order,
        run ``port``'s handler on ``payload`` after ``delay`` seconds:
        ordered like :meth:`schedule` calls made at the same point. A
        fan-out is one call."""
        handler = self._ports.get(port)
        if handler is None:
            raise SimulationError(f"unknown port {port!r}")
        queue, now, sequence = self._queue, self.now, self._sequence
        for delay, payload, _shard in items:
            if delay < 0:
                raise SimulationError(f"cannot schedule {delay}s in the past")
            heappush(queue, (now + delay, next(sequence), handler, payload))

    def schedule_periodic(
        self,
        interval: float,
        handler: Handler,
        label: str = "",
        jitter: float = 0.0,
        stagger: bool = False,
        rng: Optional[random.Random] = None,
        shard: Optional[str] = None,
    ) -> Callable[[], None]:
        """Run ``handler`` every ``interval`` seconds until stopped.

        Returns a zero-argument function that stops the task.
        ``jitter`` adds a uniform random offset in ``[0, jitter)`` to
        **every** firing, the first included, so all gaps lie in
        ``[interval, interval + jitter)``. ``stagger=True`` additionally
        draws the first firing's phase from ``[0, interval)`` — the
        explicit opt-in that keeps heartbeats of many nodes from
        synchronising artificially. ``rng`` selects the stream the
        offsets are drawn from (default: the simulator's shared one).
        """
        if interval <= 0:
            raise SimulationError("periodic interval must be positive")
        draw = rng if rng is not None else self.rng
        if stagger:
            first_delay = draw.uniform(0, interval)
        else:
            first_delay = interval + (draw.uniform(0, jitter) if jitter else 0)
        task = _Periodic()
        task.interval, task.handler, task.label = interval, handler, label
        task.jitter, task.draw, task.shard = jitter, draw, shard
        self.schedule(first_delay, task, label, shard=shard)
        return task.cancel

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 1_000_000_000,
    ) -> None:
        """Drain the queue, optionally stopping at simulated time ``until``.

        ``max_events`` is a runaway guard (e.g. a zero-delay event loop
        rescheduling itself forever); hitting it with work still
        pending before ``until`` raises instead of silently truncating
        the simulation — a cut-short run would otherwise report
        plausible but wrong metrics.
        """
        queue = self._queue
        processed = 0
        _gc_quiesce()
        try:
            while queue and processed < max_events:
                time = queue[0][0]
                if until is not None and time > until:
                    break
                time, _seq, handler, argument = heappop(queue)
                if time < self.now:
                    raise SimulationError(
                        "event queue went backwards in time"
                    )
                self.now = time
                handler(argument)
                self.events_processed += 1
                processed += 1
        finally:
            _gc_restore()
        if processed >= max_events:
            if queue and (until is None or queue[0][0] <= until):
                raise SimulationError(
                    f"event budget exhausted ({max_events} events) with "
                    f"work pending at t={queue[0][0]:.3f}; raise "
                    "max_events or shrink the workload"
                )
        if until is not None and (not queue or self.now < until):
            self.now = max(self.now, until)

    def run_for(self, duration: float) -> None:
        """Advance the clock by ``duration`` simulated seconds."""
        self.run(until=self.now + duration)
