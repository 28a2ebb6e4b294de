"""Tests for the discrete-event kernel, latency models and metrics."""

import random

import pytest

from repro.errors import SimulationError
from repro.net.network import Network
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.metrics import Histogram, MetricsRegistry
from repro.sim.simulator import Simulator


class _Sink:
    def __init__(self, node_id):
        self.node_id = node_id

    def deliver(self, from_peer, packet):
        pass


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda s: order.append("c"))
        sim.schedule(1.0, lambda s: order.append("a"))
        sim.schedule(2.0, lambda s: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda s: order.append(1))
        sim.schedule(1.0, lambda s: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda s: times.append(s.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda s: None)

    def test_schedule_after_the_clock_has_advanced(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.run()
        hits = []
        sim.schedule(4.0, lambda s: hits.append(s.now))
        sim.run()
        assert hits == [5.0]

    def test_handlers_can_schedule_followups(self):
        sim = Simulator()
        hits = []

        def first(s):
            hits.append(s.now)
            s.schedule(1.0, lambda s2: hits.append(s2.now))

        sim.schedule(1.0, first)
        sim.run()
        assert hits == [1.0, 2.0]

    def test_schedule_returns_nothing(self):
        """No event is cancellable: neither form hands back a handle."""
        sim = Simulator()
        sim.register_port("p", lambda payload: None)
        assert sim.schedule(1.0, lambda s: None) is None
        assert sim.schedule_port("p", [(1.0, "x", None)]) is None

    def test_closure_events_receive_the_simulator(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append)
        sim.run()
        assert seen == [sim]


class TestHeap:
    def test_every_entry_has_one_shape(self):
        """Closure, port and periodic events all queue as
        ``(time, sequence, handler, argument)``."""
        sim = Simulator()
        on_port = []
        sim.register_port("p", on_port.append)
        sim.schedule(2.0, lambda s: None)
        sim.schedule_port("p", [(1.0, "payload", None)])
        sim.schedule_periodic(3.0, lambda s: None)
        assert len(sim._queue) == 3
        assert all(len(entry) == 4 for entry in sim._queue)
        by_time = {entry[0]: entry for entry in sim._queue}
        assert by_time[1.0][3] == "payload"
        assert by_time[2.0][3] is sim and by_time[3.0][3] is sim
        assert sorted(entry[1] for entry in sim._queue) == [0, 1, 2]

    def test_every_pending_event_stays_queued_until_run_reaches_it(self):
        sim = Simulator()
        sim.register_port("p", lambda payload: None)
        for i in range(4):
            sim.schedule(float(i), lambda s: None)
        sim.schedule_port("p", [(0.5, i, None) for i in range(3)])
        assert len(sim._queue) == 7
        sim.run(until=0.0)
        assert len(sim._queue) == 6 and sim.events_processed == 1
        sim.run()
        assert not sim._queue and sim.events_processed == 7

    def test_stopped_periodic_tick_drains_as_a_no_op(self):
        """Stopping a task leaves its next tick queued; that tick fires
        without calling the handler and queues nothing after it."""
        sim = Simulator()
        hits = []
        stop = sim.schedule_periodic(1.0, lambda s: hits.append(s.now))
        sim.run(until=1.5)
        stop()
        assert len(sim._queue) == 1
        sim.run()
        assert hits == [1.0]
        assert not sim._queue and sim.events_processed == 2

    def test_restarted_periodic_tasks_keep_the_heap_bounded(self):
        """A workload that keeps stopping tasks and starting new ones
        (timers re-armed under churn) holds at most the live tasks plus
        one pending no-op tick per task stopped within an interval."""
        sim = Simulator()
        live = []
        late_hits = []

        def churn(s):
            for stop in live:
                stop()
            live[:] = [
                s.schedule_periodic(5.0, lambda s2: late_hits.append(s2.now))
                for _ in range(50)
            ]
            assert len(s._queue) <= 6 * 50 + 1

        sim.schedule_periodic(1.0, churn)
        sim.run(until=400.0)
        assert late_hits == []  # every task was stopped before it fired
        assert len(sim._queue) <= 6 * 50 + 1


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda s: hits.append(1))
        sim.schedule(10.0, lambda s: hits.append(10))
        sim.run(until=5.0)
        assert hits == [1]
        assert sim.now == 5.0
        sim.run()
        assert hits == [1, 10]

    def test_run_for_advances_relative(self):
        sim = Simulator()
        sim.run_for(3.0)
        assert sim.now == 3.0
        sim.run_for(2.0)
        assert sim.now == 5.0

    def test_event_budget_exhaustion_raises_loudly(self):
        """A cut-short run must raise, never report plausible metrics."""
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda s: None)
        with pytest.raises(SimulationError):
            sim.run(until=5.0, max_events=2)

    def test_truncation_names_the_pending_head(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None)  # real pending work
        sim.schedule(0.5, lambda s: None)
        with pytest.raises(SimulationError, match=r"pending at t=1\.000"):
            sim.run(until=10.0, max_events=1)

    def test_budget_equal_to_the_pending_work_is_not_truncation(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda s: None)
        sim.run(until=5.0, max_events=3)
        assert sim.events_processed == 3 and sim.now == 5.0

    def test_budget_not_triggered_by_events_beyond_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.schedule(100.0, lambda s: None)  # outside the window
        sim.run(until=5.0, max_events=1)
        assert sim.now == 5.0


class TestPeriodic:
    def test_periodic_fires_repeatedly(self):
        sim = Simulator()
        hits = []
        sim.schedule_periodic(1.0, lambda s: hits.append(s.now))
        sim.run(until=5.5)
        assert hits == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_periodic_cancel(self):
        sim = Simulator()
        hits = []
        cancel = sim.schedule_periodic(1.0, lambda s: hits.append(s.now))
        sim.run(until=2.5)
        cancel()
        sim.run(until=10.0)
        assert hits == [1.0, 2.0]

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0.0, lambda s: None)

    def test_jitter_stays_bounded(self):
        sim = Simulator(seed=3)
        hits = []
        sim.schedule_periodic(1.0, lambda s: hits.append(s.now), jitter=0.1)
        sim.run(until=20.0)
        gaps = [b - a for a, b in zip(hits, hits[1:])]
        assert all(1.0 <= gap <= 1.1001 for gap in gaps)

    def test_jitter_contract_includes_first_firing(self):
        """Every firing, the first included, lands ``interval`` plus a
        draw from ``[0, jitter)`` after the previous one — the first
        firing must not use a different (wider) distribution."""
        sim = Simulator(seed=11)
        hits = []
        sim.schedule_periodic(2.0, lambda s: hits.append(s.now), jitter=0.5)
        sim.run(until=30.0)
        assert 2.0 <= hits[0] < 2.5
        gaps = [b - a for a, b in zip(hits, hits[1:])]
        assert all(2.0 <= gap < 2.5 for gap in gaps)

    def test_jitter_firing_times_pinned_under_fixed_seed(self):
        """The documented contract, checked bit-for-bit: each delay is
        ``interval + rng.uniform(0, jitter)`` drawn from the shared
        stream, so a mirror of the same seed predicts every firing."""
        sim = Simulator(seed=5)
        hits = []
        sim.schedule_periodic(1.0, lambda s: hits.append(s.now), jitter=0.25)
        sim.run(until=10.0)

        mirror = random.Random(5)
        expected = []
        t = 0.0
        while True:
            t += 1.0 + mirror.uniform(0, 0.25)
            if t > 10.0:
                break
            expected.append(t)
        assert hits == expected

    def test_stagger_draws_phase_from_interval(self):
        """``stagger=True`` opts in to a first firing anywhere in
        ``[0, interval)`` (desyncs fleets of identical timers); gaps
        after that follow the normal jitter contract."""
        sim = Simulator(seed=9)
        hits = []
        sim.schedule_periodic(
            1.0, lambda s: hits.append(s.now), jitter=0.1, stagger=True
        )
        sim.run(until=15.0)
        assert 0.0 <= hits[0] < 1.0
        gaps = [b - a for a, b in zip(hits, hits[1:])]
        assert all(1.0 <= gap < 1.1 for gap in gaps)

    def test_periodic_private_rng_leaves_shared_stream_alone(self):
        sim = Simulator(seed=1)
        before = sim.rng.getstate()
        sim.schedule_periodic(
            1.0, lambda s: None, jitter=0.5, rng=random.Random(42)
        )
        sim.run(until=5.0)
        assert sim.rng.getstate() == before


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            values = []
            sim.schedule_periodic(
                1.0, lambda s: values.append(s.rng.random()), jitter=0.5
            )
            sim.run(until=10.0)
            return values

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)


class TestLatencyModels:
    def test_constant_model(self):
        model = LatencyModel(base_seconds=0.2)
        assert model.sample_latency(random.Random(0)) == 0.2

    def test_uniform_bounds(self):
        model = UniformLatency(base_seconds=0.1, spread_seconds=0.2)
        rng = random.Random(0)
        for _ in range(100):
            sample = model.sample_latency(rng)
            assert 0.1 <= sample <= 0.3

    def test_loss_probability(self):
        for loss, scheduled in ((1.0, 0), (0.0, 1)):
            sim = Simulator(seed=0)
            network = Network(
                sim, latency=LatencyModel(loss_probability=loss)
            )
            for node_id in ("a", "b"):
                network.attach(_Sink(node_id))
            network.connect("a", "b")
            assert network.send("a", ["b"], "x") == scheduled


class TestMetrics:
    def test_histogram_stats(self):
        hist = Histogram()
        for v in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(v)
        assert hist.count == 4
        assert hist.mean == 2.5
        assert hist.maximum == 4.0
        assert hist.percentile(50) == 2.5
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 4.0

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.percentile(99) == 0.0

    def test_cached_stats_match_naive_recomputation(self):
        """Every statistic is its textbook definition over the samples,
        checked between observations: the mean adds left to right, the
        percentile interpolates linearly between order statistics."""
        rng = random.Random(1234)
        hist = Histogram()
        for i in range(500):
            hist.observe(rng.uniform(-1e6, 1e6))
            if i % 7 == 0:  # exercise read-after-write invalidation
                naive = sorted(hist.samples)
                n = len(naive)
                assert hist.mean == sum(hist.samples) / n
                assert hist.maximum == naive[-1]
                for q in (0, 25, 50, 90, 99, 100):
                    rank = (q / 100.0) * (n - 1)
                    import math
                    low, high = math.floor(rank), math.ceil(rank)
                    if low == high:
                        expected = naive[low]
                    else:
                        w = rank - low
                        expected = naive[low] * (1 - w) + naive[high] * w
                    assert hist.percentile(q) == expected

    def test_direct_samples_append_detected(self):
        """Bypassing observe() (legacy callers mutate ``samples``
        directly) must still yield correct statistics."""
        hist = Histogram()
        hist.observe(1.0)
        hist.samples.append(100.0)
        hist.samples.append(-5.0)
        assert hist.mean == (1.0 + 100.0 - 5.0) / 3
        assert hist.maximum == 100.0
        assert hist.percentile(0) == -5.0
        assert hist.percentile(100) == 100.0

    def test_histogram_constructed_with_samples(self):
        hist = Histogram(samples=[3.0, 1.0, 2.0])
        assert hist.mean == 2.0
        assert hist.percentile(0) == 1.0
        assert hist.percentile(50) == 2.0

    def test_histogram_equality_still_compares_samples(self):
        a = Histogram(samples=[1.0, 2.0])
        b = Histogram(samples=[1.0, 2.0])
        _ = a.percentile(50)  # warm a's cache, not b's
        assert a == b

    def test_registry(self):
        metrics = MetricsRegistry()
        metrics.counters["x"] += 1
        metrics.counters["x"] += 4
        assert metrics.counter("x") == 5
        assert metrics.counter("missing") == 0
