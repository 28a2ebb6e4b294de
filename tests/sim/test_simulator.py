"""Tests for the discrete-event kernel, latency models and metrics."""

import random

import pytest

from repro.errors import SimulationError
from repro.net.network import Network
from repro.sim.latency import LatencyModel, LogNormalLatency, UniformLatency
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

    def test_cancellation(self):
        sim = Simulator()
        hits = []
        handle = sim.schedule(1.0, lambda s: hits.append(1))
        handle.cancel()
        sim.run()
        assert hits == []
        assert handle.cancelled


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

    def test_cancelled_head_does_not_mask_truncation(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None)  # real pending work
        sim.schedule(0.5, lambda s: None)
        handle.cancel()
        with pytest.raises(SimulationError):
            sim.run(until=10.0, max_events=1)

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


class TestHeapHygiene:
    def test_cancel_heavy_loop_keeps_heap_bounded(self):
        """Cancelled events must be compacted out, not accumulate: a
        workload that perpetually schedules-then-cancels (gossip
        backoffs under churn) keeps a small heap."""
        sim = Simulator()
        pending = []

        def churn(s):
            for handle in pending:
                handle.cancel()
            pending.clear()
            for i in range(50):
                pending.append(s.schedule(100.0, lambda s2: None))

        sim.schedule_periodic(1.0, churn)
        sim.run(until=400.0)
        # 20k schedule/cancel pairs happened; without compaction the
        # heap would hold ~20k dead entries.
        assert len(sim._queue) < 4 * 50 + Simulator.COMPACT_MIN_CANCELLED
        assert sim.queue_depth() == 50 + 1  # survivors + the timer

    def test_compaction_preserves_order_and_liveness(self):
        sim = Simulator()
        sim.COMPACT_MIN_CANCELLED = 4  # force compaction early
        hits = []
        keep = [sim.schedule(float(i), lambda s, i=i: hits.append(i))
                for i in (5, 3, 8)]
        doomed = [sim.schedule(1.0, lambda s: hits.append("dead"))
                  for _ in range(16)]
        for handle in doomed:
            handle.cancel()
        sim.run()
        assert hits == [3, 5, 8]
        assert all(h.cancelled for h in doomed)
        assert not any(h.cancelled for h in keep)

    def test_stale_handle_cannot_cancel_recycled_record(self):
        """A lingering handle to a fired event must not cancel a later,
        unrelated event, nor count as a cancelled entry."""
        sim = Simulator()
        hits = []
        stale = sim.schedule(1.0, lambda s: hits.append("first"))
        sim.run()
        assert hits == ["first"]
        sim.schedule(1.0, lambda s: hits.append("second"))
        stale.cancel()  # must be a no-op for the new event
        assert sim._cancelled_pending == 0
        sim.run()
        assert hits == ["first", "second"]

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda s: None)
        handle.cancel()
        handle.cancel()
        assert sim._cancelled_pending == 1
        sim.run()
        assert sim._cancelled_pending == 0

    def test_queue_depth_excludes_cancelled(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda s: None) for _ in range(10)]
        assert sim.queue_depth() == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.queue_depth() == 6


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

    def test_lognormal_clamped(self):
        model = LogNormalLatency(base_seconds=0.05, sigma=2.0, max_seconds=1.0)
        rng = random.Random(0)
        assert all(model.sample_latency(rng) <= 1.0 for _ in range(200))

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
        assert hist.minimum == 1.0
        assert hist.maximum == 4.0
        assert hist.percentile(50) == 2.5
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 4.0

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.percentile(99) == 0.0
        assert hist.stddev == 0.0

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
                assert hist.minimum == naive[0]
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
                mean = sum(hist.samples) / n
                if n >= 2:
                    var = sum((s - mean) ** 2 for s in hist.samples) / (n - 1)
                    assert hist.stddev == math.sqrt(var)

    def test_direct_samples_append_detected(self):
        """Bypassing observe() (legacy callers mutate ``samples``
        directly) must still yield correct statistics."""
        hist = Histogram()
        hist.observe(1.0)
        hist.samples.append(100.0)
        hist.samples.append(-5.0)
        assert hist.mean == (1.0 + 100.0 - 5.0) / 3
        assert hist.minimum == -5.0
        assert hist.maximum == 100.0
        assert hist.percentile(100) == 100.0

    def test_histogram_constructed_with_samples(self):
        hist = Histogram(samples=[3.0, 1.0, 2.0])
        assert hist.mean == 2.0
        assert hist.minimum == 1.0
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
