"""Port events on the serial kernel against the closure form they replace.

``Simulator.schedule_port`` queues a ``(time, seq, handler, payload)``
heap tuple, with no closure behind it. The oracle below schedules the
same call as an ordinary closure event, which is what every kernel did
before; the two must execute the same events in the same order and
agree on the clock and the counters after every operation, whatever is
interleaved with them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.network import Network
from repro.sim.latency import LatencyModel
from repro.sim.parallel_stack import ShardPlan, WindowedStackSimulator
from repro.sim.simulator import Simulator


class ClosurePortSimulator(Simulator):
    """Tests-only oracle: a port event is a plain closure event."""

    def schedule_port(self, port, items):
        handler = self._ports[port]
        for delay, payload, shard in items:
            self.schedule(delay, lambda _sim, p=payload: handler(p), "", shard)


class Driver:
    """One kernel plus the script both kernels are put through."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.log = []
        self.next_id = 0
        sim.register_port("p", self.on_port)

    # Fired events schedule follow-ups of the *other* form, so both
    # forms are also scheduled from inside a dispatch.
    def on_port(self, ident):
        self.log.append(("port", ident, self.sim.now))
        if ident % 3 == 0:
            self.closure(0.0)

    def on_closure(self, ident):
        self.log.append(("closure", ident, self.sim.now))
        if ident % 4 == 0:
            self.port(0.5)

    def _id(self):
        self.next_id += 1
        return self.next_id

    def port(self, delay):
        self.sim.schedule_port("p", [(delay, self._id(), None)])

    def closure(self, delay):
        ident = self._id()
        self.sim.schedule(delay, lambda _sim: self.on_closure(ident))

    def apply(self, op):
        kind, arg = op
        if kind == "port":
            self.port(arg)
        elif kind == "closure":
            self.closure(arg)
        elif kind == "run_until":
            self.sim.run(until=self.sim.now + arg)
        elif kind == "run_max":
            try:
                self.sim.run(max_events=arg)
            except SimulationError as exc:
                self.log.append(("truncated", str(exc)))

    def state(self):
        sim = self.sim
        return (self.log, sim.now, sim.events_processed, len(sim._queue))


#: On a half-second grid, so events land exactly on ``until`` and on
#: each other's timestamps.
DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
OPS = st.one_of(
    st.tuples(st.just("port"), DELAYS),
    st.tuples(st.just("port"), DELAYS),
    st.tuples(st.just("closure"), DELAYS),
    st.tuples(st.just("run_until"), DELAYS),
    st.tuples(st.just("run_max"), st.integers(0, 4)),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(OPS, max_size=60))
def test_port_events_match_the_closure_oracle(ops):
    fast, oracle = Driver(Simulator()), Driver(ClosurePortSimulator())
    for op in ops:
        fast.apply(op)
        oracle.apply(op)
        assert fast.state() == oracle.state(), op
    fast.sim.run()
    oracle.sim.run()
    assert fast.state() == oracle.state()


def test_equal_time_port_and_closure_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    sim.register_port("p", order.append)
    sim.schedule_port("p", [(1.0, "port-1", None)])
    sim.schedule(1.0, lambda _sim: order.append("closure-2"))
    sim.schedule_port("p", [(1.0, "port-3", None)])
    sim.schedule(0.5, lambda s: s.schedule_port("p", [(0.5, "port-4", None)]))
    sim.run()
    assert order == ["port-1", "closure-2", "port-3", "port-4"]
    assert sim.now == 1.0 and sim.events_processed == 5


def test_event_budget_with_a_port_event_at_the_head_raises_truncation():
    sim = Simulator()
    fired = []
    sim.register_port("p", fired.append)
    for i in range(3):
        sim.schedule_port("p", [(1.0 + i, i, None)])
    with pytest.raises(SimulationError, match="event budget exhausted"):
        sim.run(max_events=2)
    assert fired == [0, 1] and len(sim._queue) == 1
    sim.run(until=2.5, max_events=0)  # pending work lies past ``until``
    assert sim.now == 2.5


def test_run_until_includes_a_port_event_exactly_at_until():
    sim = Simulator()
    fired = []
    sim.register_port("p", fired.append)
    sim.schedule_port("p", [(2.0, "at", None)])
    sim.schedule_port("p", [(2.5, "after", None)])
    sim.run(until=2.0)
    assert fired == ["at"] and sim.now == 2.0 and len(sim._queue) == 1
    sim.run()
    assert fired == ["at", "after"] and sim.now == 2.5 and not sim._queue


def _kernels():
    return [
        Simulator(seed=3),
        WindowedStackSimulator(
            seed=3, plan=ShardPlan(2), window=0.25
        ),
    ]


@pytest.mark.parametrize("sim", _kernels(), ids=lambda s: type(s).__name__)
def test_port_misuse_is_a_simulation_error_on_every_kernel(sim):
    sim.register_port("p", lambda payload: None)
    with pytest.raises(SimulationError, match="already registered"):
        sim.register_port("p", lambda payload: None)
    with pytest.raises(SimulationError, match="unknown port"):
        sim.schedule_port("q", [(1.0, None, None)])
    with pytest.raises(SimulationError, match="in the past"):
        sim.schedule_port("p", [(-1.0, None, None)])
    windowed = isinstance(sim, WindowedStackSimulator)
    assert len(sim._heap if windowed else sim._queue) == 0


def _mixed_trace(sim):
    """Port and closure events whose order decides the shared-rng
    draws they log (half the deliveries go through a port)."""
    nodes = [f"peer-{i}" for i in range(8)]
    trace = []

    def on_port(payload):
        hop, node = payload
        trace.append(("port", node, sim.now, sim.rng.random()))
        if hop < 3:
            target = nodes[sim.rng.randrange(len(nodes))]
            sim.schedule(
                sim.rng.choice([0.0, 0.25, 0.5]),
                lambda _sim: on_closure(hop + 1, target),
                shard=target,
            )

    def on_closure(hop, node):
        trace.append(("closure", node, sim.now, sim.rng.random()))
        target = nodes[sim.rng.randrange(len(nodes))]
        sim.schedule_port(
            "hop", [(sim.rng.choice([0.0, 0.25, 0.5]), (hop, target), target)]
        )

    sim.register_port("hop", on_port)
    for node in nodes:
        sim.schedule_port("hop", [(0.5, (0, node), node)])
    sim.run(until=3.0)
    sim.run()
    return trace, sim.now, sim.events_processed


def test_mixed_trace_matches_the_closure_oracle():
    serial = _mixed_trace(Simulator(seed=42))
    assert len(serial[0]) > 40
    assert _mixed_trace(ClosurePortSimulator(seed=42)) == serial


class _Recorder:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def deliver(self, from_peer, packet):
        self.received.append((from_peer, packet))


@pytest.mark.parametrize("sim", _kernels(), ids=lambda s: type(s).__name__)
def test_delivery_to_a_node_detached_in_flight_is_dead_lettered(sim):
    network = Network(sim, latency=LatencyModel(base_seconds=0.3))
    nodes = {name: _Recorder(name) for name in ("a", "b", "c")}
    for node in nodes.values():
        network.attach(node)
    network.connect("a", "b")
    network.connect("a", "c")
    assert network.send("a", ["b"], "lost")
    assert network.send("a", ["c"], "kept")
    network.detach("b")  # both packets are in flight
    assert not network.send("a", ["b"], "no link any more")
    if isinstance(sim, WindowedStackSimulator):
        sim.run_window(1.0, final=True)
    else:
        sim.run(until=1.0)
    assert nodes["b"].received == []
    assert nodes["c"].received == [("a", "kept")]
    assert network.metrics.counter("net.packets_dead_lettered") == 1
    assert network.metrics.counter("net.packets_sent") == 2
    assert network.metrics.counter("net.send_no_link") == 1
    assert sim.events_processed == 2
