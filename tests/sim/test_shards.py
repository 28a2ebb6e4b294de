"""Shard plans, and the windowed kernel's invariance under them: the
same seed gives the same execution at any shard count and any split of
the shards across barrier-synchronised workers."""

import pytest

from repro.errors import SimulationError
from repro.scenarios.parallel import barrier_times, contiguous_groups
from repro.sim.parallel_stack import ShardPlan, WindowedStackSimulator

NODES = [f"peer-{i}" for i in range(12)]
WINDOW = 0.25
DURATION = 8.0


class TestShardPlan:
    def test_hash_plan_is_stable_and_in_range(self):
        plan = ShardPlan(4)
        for key in (f"peer-{i}" for i in range(200)):
            shard = plan.shard_of(key)
            assert 0 <= shard < 4
            assert plan.shard_of(key) == shard  # stable

    def test_hash_plan_spreads_keys(self):
        plan = ShardPlan(4)
        counts = [0] * 4
        for i in range(400):
            counts[plan.shard_of(f"peer-{i}")] += 1
        assert all(count > 50 for count in counts)

    def test_key_list_is_cut_into_contiguous_blocks(self):
        keys = [f"peer-{i}" for i in range(10)]
        assert [ShardPlan(2, keys).shard_of(k) for k in keys] == (
            [0] * 5 + [1] * 5
        )
        # Ceil-sized blocks: the last shard takes the remainder.
        assert [ShardPlan(3, keys).shard_of(k) for k in keys] == (
            [0] * 4 + [1] * 4 + [2] * 2
        )

    def test_key_outside_the_list_hashes_as_without_a_list(self):
        listed, hashed = ShardPlan(4, ["a", "b"]), ShardPlan(4)
        for key in (f"joined-{i}" for i in range(50)):
            assert listed.shard_of(key) == hashed.shard_of(key)

    def test_pins_override_both_assignments(self):
        plan = ShardPlan(2, ["a", "b"], pins={"b": 0, "joined": 1})
        assert plan.shard_of("b") == 0
        assert plan.shard_of("joined") == 1

    def test_none_key_maps_to_shard_zero(self):
        assert ShardPlan(4).shard_of(None) == 0

    def test_single_shard_short_circuits(self):
        assert ShardPlan(1).shard_of("anything") == 0

    def test_invalid_plans_rejected(self):
        with pytest.raises(SimulationError):
            ShardPlan(0)
        with pytest.raises(SimulationError):
            ShardPlan(2, pins={"a": 2})


def _relay_workload(sim, log):
    """Jittered heartbeats that send to random peers through a port,
    with every third node's timer cancelled mid-run. Each node draws
    from its own stream, so execution order is the only thing the
    shard layout could change."""

    def deliver(payload):
        sender, target = payload
        log.append((round(sim.now, 9), "recv", sender, target))

    sim.register_port("deliver", deliver)

    def beat(node, rng):
        def handler(s):
            target = rng.choice(NODES)
            delay = rng.uniform(WINDOW, WINDOW + 0.3)
            log.append((round(s.now, 9), "beat", node, target))
            s.schedule_port(
                "deliver", [(delay, (node, target), target)]
            )

        return handler

    for i, node in enumerate(NODES):
        with sim.build_context(node):
            rng = sim.entity_rng(node)
            cancel = sim.schedule_periodic(
                0.7,
                beat(node, rng),
                label=f"heartbeat:{node}",
                jitter=0.2,
                stagger=True,
                rng=rng,
                shard=node,
            )
            if i % 3 == 0:
                sim.schedule(3.0, lambda s, c=cancel: c(), shard=node)


def _run(plan, workers=1, seed=11):
    """Run the workload with the plan's shards split over ``workers``
    kernels, routing exported port packets to their owner at every
    barrier. Returns the workers and their merged trace and log."""
    groups = contiguous_groups(plan.shard_count, workers)
    sims, logs = [], []
    for group in groups:
        sim = WindowedStackSimulator(seed=seed, plan=plan, window=WINDOW)
        log = []
        _relay_workload(sim, log)
        sim.trace = []
        if len(groups) > 1:
            sim.restrict_to(frozenset(group))
        sims.append(sim)
        logs.append(log)
    for _t_prev, t_end, final in barrier_times(DURATION, WINDOW):
        for sim in sims:
            sim.run_window(t_end, final=final)
        packets = [p for sim in sims for p in sim.drain_exports()]
        for sim in sims:
            sim.inject([p for p in packets if p[0] in sim.owned])
    if len(sims) == 1:
        return sims, sims[0].trace, logs[0]
    trace = sorted(entry for sim in sims for entry in sim.trace)
    log = sorted(entry for worker_log in logs for entry in worker_log)
    return sims, trace, log


class TestWindowedPartitionInvariance:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_trace_invariant_across_shard_counts(self, shards):
        """The heap orders on ``(time, origin, seq)``, none of which
        depends on the plan: the trace and every logged draw match the
        single-shard run, in execution order."""
        (base,), base_trace, base_log = _run(ShardPlan(1))
        (sim,), trace, log = _run(ShardPlan(shards))
        assert len(base_log) > 100
        assert [e[:4] for e in trace] == [e[:4] for e in base_trace]
        assert log == base_log
        assert sim.events_processed == base.events_processed

    @pytest.mark.parametrize("shards, workers", [(2, 2), (4, 2)])
    def test_forked_workers_match_one_worker(self, shards, workers):
        """Splitting the shards across workers that meet only at the
        barriers executes the same events under the same keys."""
        plan = ShardPlan(shards)
        (whole,), whole_trace, whole_log = _run(plan)
        sims, trace, log = _run(plan, workers=workers)
        assert len(sims) == workers
        assert trace == sorted(whole_trace)
        assert log == sorted(whole_log)
        processed = sum(s.events_processed for s in sims)
        assert processed == whole.events_processed
        assert (
            sum(s.cross_shard_scheduled for s in sims)
            == whole.cross_shard_scheduled
            > 0
        )

    def test_cross_shard_accounting(self):
        (sim,), _trace, _log = _run(ShardPlan(4))
        stats = sim.shard_stats()
        assert stats["shards"] == 4
        assert stats["window"] == WINDOW
        assert stats["barriers"] == len(list(barrier_times(DURATION, WINDOW)))
        assert stats["cross_shard_scheduled"] > 0
        assert sum(stats["events_by_shard"]) == sim.events_processed
        assert all(count > 0 for count in stats["events_by_shard"])
        assert 0.0 < stats["cross_shard_fraction"] < 1.0

    def test_single_shard_has_no_cross_traffic(self):
        (sim,), _trace, _log = _run(ShardPlan(1))
        stats = sim.shard_stats()
        assert stats["cross_shard_scheduled"] == 0
        assert stats["events_by_shard"] == [sim.events_processed]

    def test_cancelled_timers_stop_on_every_worker(self):
        _sims, _trace, log = _run(ShardPlan(4), workers=2)
        for i, node in enumerate(NODES):
            beats = [
                t for t, kind, who, _ in log if kind == "beat" and who == node
            ]
            assert beats, node
            if i % 3 == 0:
                assert max(beats) < 3.0, node
            else:
                assert max(beats) > DURATION - 1.0, node

    def test_schedule_returns_nothing(self):
        sim = WindowedStackSimulator(seed=0, plan=ShardPlan(2), window=WINDOW)
        sim.register_port("p", lambda payload: None)
        assert sim.schedule(1.0, lambda s: None, shard="peer-1") is None
        assert sim.schedule_port("p", [(1.0, "x", "peer-2")]) is None
        assert len(sim._heap) == 2

    def test_events_queued_for_other_shards_all_fire(self):
        """Every event a handler queues for another shard counts in
        the depth until it fires, and every one of them fires."""
        sim = WindowedStackSimulator(seed=0, plan=ShardPlan(4), window=WINDOW)
        fired = []

        def fan_out(s):
            for i in range(40):
                s.schedule(
                    50.0, lambda s2: fired.append(s2.now), shard=f"peer-{i}"
                )

        sim.schedule(1.0, fan_out, shard="peer-0")
        for _t_prev, t_end, final in barrier_times(60.0, WINDOW):
            sim.run_window(t_end, final=final)
            if t_end == 10.0:
                assert len(sim._heap) == 40
        assert sim.shard_stats()["cross_shard_scheduled"] > 0
        assert fired == [51.0] * 40
        assert len(sim._heap) == 0
