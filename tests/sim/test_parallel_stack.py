"""The window-isolated kernel: RNG streams, ordering keys, ports,
windows, and its cross-shard coupling accounting.
"""

from __future__ import annotations

import random

import pytest

from repro.core.protocol import WakuRlnRelayNetwork
from repro.errors import SimulationError
from repro.scenarios.parallel import barrier_times, contiguous_groups
from repro.sim.parallel_stack import (
    BUILD_ORIGIN,
    ShardPlan,
    WindowedStackSimulator,
)
from repro.sim.simulator import Simulator


def make_sim(shards=2, seed=7, window=0.25, pins=None):
    keys = [f"peer-{i}" for i in range(8)]
    plan = ShardPlan(shards, keys, pins=pins)
    return WindowedStackSimulator(seed=seed, plan=plan, window=window)


class TestEntityRngStreams:
    def test_streams_are_isolated(self):
        """Entity A's draws must not depend on whether entity B drew
        in between — the property that frees the hot path from the
        shared-RNG total order."""
        sim = make_sim()
        solo = [sim.entity_rng("peer-0").random() for _ in range(5)]

        other = make_sim()
        interleaved = []
        for _ in range(5):
            other.entity_rng("peer-1").random()  # B draws between A's
            interleaved.append(other.entity_rng("peer-0").random())
        assert solo == interleaved

    def test_streams_are_seed_deterministic(self):
        draws = [make_sim(seed=3).entity_rng("x").random() for _ in (0, 1)]
        assert draws[0] == draws[1]
        assert make_sim(seed=4).entity_rng("x").random() != draws[0]

    def test_distinct_entities_get_distinct_streams(self):
        sim = make_sim()
        assert (
            sim.entity_rng("peer-0").random()
            != sim.entity_rng("peer-1").random()
        )
        assert sim.entity_rng("peer-0") is sim.entity_rng("peer-0")

    def test_windowed_kernel_is_entity_isolated_legacy_is_not(self):
        sim = make_sim()
        assert sim.entity_isolated
        assert isinstance(sim.entity_rng("a"), random.Random)
        legacy = Simulator(seed=1)
        assert not legacy.entity_isolated
        # Legacy kernels alias every entity to the shared stream —
        # the historical behaviour, bit for bit.
        assert legacy.entity_rng("a") is legacy.rng
        assert legacy.entity_rng("b") is legacy.rng


class TestOrderingAndWindows:
    def test_context_inheritance_and_order_keys(self):
        sim = make_sim()
        keys = []

        def handler(s):
            keys.append(s.consume_order_key())

        sim.schedule(0.1, handler, shard="peer-0")
        sim.schedule(0.1, handler, shard="peer-1")
        sim.run_window(0.25)
        # Each event executed under its own entity's context: origins
        # differ, per-origin counters start at their own histories.
        assert keys[0][1] == "peer-0"
        assert keys[1][1] == "peer-1"
        assert sim._context == BUILD_ORIGIN

    def test_event_exactly_on_window_boundary(self):
        """A boundary event belongs to the *next* window — except at
        the final barrier, which is inclusive (matching
        ``Simulator.run(until)``)."""
        sim = make_sim(window=0.5)
        fired = []
        sim.schedule(0.5, lambda s: fired.append(s.now))
        sim.run_window(0.5)
        assert fired == []  # t == t_end stays queued
        sim.run_window(1.0)
        assert fired == [0.5]

        sim2 = make_sim(window=0.5)
        sim2.schedule(0.5, lambda s: fired.append("final"))
        sim2.run_window(0.5, final=True)
        assert fired[-1] == "final"

    def test_intra_window_cross_shard_event_raises(self):
        sim = make_sim(window=0.25)

        def too_soon(s):
            # peer-1 hashes/blocks to a different shard than peer-0 at
            # shard_count=2 with blocked assignment of 8 peers.
            s.schedule(0.01, lambda _: None, shard="peer-7")

        sim.schedule(0.1, too_soon, shard="peer-0")
        with pytest.raises(SimulationError, match="inside the current"):
            sim.run_window(0.25)

    def test_cross_shard_event_landing_at_window_end_is_legal(self):
        sim = make_sim(window=0.25)
        fired = []

        def at_boundary(s):
            s.schedule(0.15, lambda _: fired.append(s.now), shard="peer-7")

        sim.schedule(0.1, at_boundary, shard="peer-0")
        sim.run_window(0.25)
        sim.run_window(0.5)
        assert len(fired) == 1

    def test_run_is_disabled(self):
        with pytest.raises(SimulationError, match="run_window"):
            make_sim().run(10.0)

    def test_barrier_times_cover_duration_exactly_once(self):
        windows = list(barrier_times(1.0, 0.3))
        assert windows[0][0] == 0.0
        assert windows[-1][1] == 1.0
        assert windows[-1][2] is True
        assert all(not final for _, _, final in windows[:-1])
        for (_, end_a, _), (start_b, _, _) in zip(windows, windows[1:]):
            assert end_a == start_b

    def test_contiguous_groups_partition_all_shards(self):
        groups = contiguous_groups(5, 2)
        assert [list(g) for g in groups] == [[0, 1, 2], [3, 4]]
        assert contiguous_groups(4, 4) == [range(i, i + 1) for i in range(4)]


class TestPortsAndOwnership:
    def test_foreign_closure_schedule_rejected_after_restrict(self):
        sim = make_sim()
        sim.restrict_to(frozenset({0}))

        def evil(s):
            s.schedule(1.0, lambda _: None, shard="peer-7")

        sim.schedule(0.1, evil, shard="peer-0")
        with pytest.raises(SimulationError, match="schedule_port"):
            sim.run_window(0.25)

    def test_port_packets_export_and_inject_identically(self):
        """The same port event executes under the same key whether its
        destination is owned (local schedule) or foreign (exported,
        then injected by the owner) — ownership is invisible."""
        seen_local = []
        sim_all = make_sim()
        sim_all.register_port("t", lambda payload: seen_local.append(payload))

        def send(s):
            s.schedule_port("t", [(0.2, "hello", "peer-7")])

        sim_all.schedule(0.05, send, shard="peer-0")
        sim_all.run_window(0.25)
        sim_all.run_window(0.5)
        assert seen_local == ["hello"]
        assert sim_all.drain_exports() == []

        seen_foreign = []
        sim_own0 = make_sim()
        sim_own0.register_port(
            "t", lambda payload: seen_foreign.append(payload)
        )
        sim_own0.restrict_to(frozenset({0}))
        sim_own0.schedule(0.05, send, shard="peer-0")
        sim_own0.run_window(0.25)
        exports = sim_own0.drain_exports()
        assert len(exports) == 1
        dst, dst_key, time, origin, _seq, port, payload, _label = exports[0]
        assert (dst_key, port, payload) == ("peer-7", "t", "hello")
        assert origin == "peer-0" and time == pytest.approx(0.25)

        sim_own1 = make_sim()
        sim_own1.register_port(
            "t", lambda payload: seen_foreign.append(payload)
        )
        sim_own1.restrict_to(frozenset({1}))
        sim_own1.inject(exports)
        sim_own1.run_window(0.25)
        sim_own1.run_window(0.5)
        assert seen_foreign == ["hello"]

    def test_inject_rejects_misrouted_packet(self):
        sim = make_sim()
        sim.restrict_to(frozenset({0}))
        packet = (1, "peer-7", 0.5, "peer-0", 0, "t", "x", "")
        with pytest.raises(SimulationError, match="wrong worker"):
            sim.inject([packet])

    def test_restrict_to_only_narrows(self):
        sim = make_sim()
        sim.restrict_to(frozenset({1}))
        with pytest.raises(SimulationError, match="narrow"):
            sim.restrict_to(frozenset({0, 1}))

    def test_shard_pins_override_assignment(self):
        plan = ShardPlan(
            2, [f"peer-{i}" for i in range(8)], pins={"peer-7": 0}
        )
        assert plan.shard_of("peer-7") == 0
        assert plan.shard_of("peer-4") == 1


class TestRuntimeDials:
    """Runtime ``Network.connect`` under window isolation (the gossip
    Peer-Exchange path). A synchronous write to the remote endpoint's
    adjacency would be invisible to the worker that owns it, so only
    the dialer's half commits in place; the remote half travels as a
    ``net.link_up`` port event — identical on every layout."""

    class _Node:
        def __init__(self, node_id):
            self.node_id = node_id

        def deliver(self, from_peer, packet):  # pragma: no cover
            pass

    def _net(self, sim):
        from repro.net.network import Network
        from repro.sim.latency import UniformLatency

        net = Network(
            sim,
            latency=UniformLatency(base_seconds=0.3, spread_seconds=0.1),
        )
        for nid in ("peer-0", "peer-7"):
            net.attach(self._Node(nid))
        return net

    def test_build_time_connect_stays_symmetric(self):
        """Pre-fork wiring runs identically on every worker, so the
        build phase keeps the historical symmetric connect."""
        sim = make_sim()
        net = self._net(sim)
        net.connect("peer-0", "peer-7")
        assert net.are_connected("peer-0", "peer-7")
        assert net.are_connected("peer-7", "peer-0")

    def test_runtime_dial_commits_remote_half_via_port(self):
        sim = make_sim()
        net = self._net(sim)

        def dial(_sim):
            net.connect("peer-0", "peer-7")
            # The dialer sees its half at once; the remote half is
            # still in flight.
            assert net.are_connected("peer-0", "peer-7")
            assert not net.are_connected("peer-7", "peer-0")

        sim.schedule(0.1, dial, shard="peer-0")
        sim.run_window(0.25)
        assert not net.are_connected("peer-7", "peer-0")
        for t_end in (0.5, 0.75):
            sim.run_window(t_end)
        assert net.are_connected("peer-7", "peer-0")
        # Redialling an established link consumes nothing.
        degrees = (net.degree("peer-0"), net.degree("peer-7"))
        sim.schedule(0.1, lambda s: net.connect("peer-0", "peer-7"))
        sim.run_window(1.0, final=True)
        assert (net.degree("peer-0"), net.degree("peer-7")) == degrees

    def test_runtime_dial_to_foreign_shard_exports_link_up(self):
        sim = make_sim()
        net = self._net(sim)
        sim.restrict_to(frozenset({0}))
        sim.schedule(
            0.1, lambda s: net.connect("peer-0", "peer-7"), shard="peer-0"
        )
        sim.run_window(0.25)
        exports = sim.drain_exports()
        assert [p[5] for p in exports] == ["net.link_up"]
        assert exports[0][6] == ("peer-7", "peer-0")

        # The worker owning shard 1 injects the packet and its copy of
        # peer-7 learns the link; its (stale) copy of peer-0 is never
        # consulted by peer-7's own sends.
        other = make_sim()
        other_net = self._net(other)
        other.restrict_to(frozenset({1}))
        other.inject(exports)
        for t_end in (0.25, 0.5, 0.75):
            other.run_window(t_end)
        assert other_net.are_connected("peer-7", "peer-0")


class TestCouplingDrop:
    def test_windowed_mode_eliminates_intra_window_coupling(self):
        """A cross-shard event landing inside the current window
        raises instead of executing, so every cross-shard event the
        windowed kernel counts crossed a barrier."""
        windowed_net = WakuRlnRelayNetwork(
            peer_count=16, seed=5, shards=2, parallel=True
        )
        windowed_net.register_all()
        windowed_net.start()
        sim = windowed_net.simulator
        for _t, t_end, final in barrier_times(10.0, sim.window):
            sim.run_window(t_end, final=final)
        windowed_net.stop()
        stats = sim.shard_stats()
        assert stats["cross_shard_scheduled"] > 0  # traffic still flows
        assert stats["barriers"] > 0
        assert sum(stats["events_by_shard"]) == sim.events_processed
