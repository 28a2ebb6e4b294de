"""One fan-out call against the per-target send it replaced.

``Network.send(sender, receivers, packet)`` now schedules a whole
fan-out through one ``schedule_port(port, items)`` call on either
kernel. The previous form — one ``send`` per receiver, drawing loss
through ``LatencyModel.sample_loss``, latency through
``UniformLatency``'s ``rng.uniform(0, spread)``, and scheduling one
port event per call through a one-item ``schedule_port`` — is kept
below as the oracle. Two identical worlds, one driven per fan-out and
one per target, must hold the same RNG states, the same heap entries,
exports and counters after every step, and deliver the same packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.network import Network
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.parallel_stack import ShardPlan, WindowedStackSimulator
from repro.sim.simulator import Simulator

NODES = tuple(f"n{i}" for i in range(6))
#: Never connected: every send to it is a missing link.
STRANGER = "n6"


def _old_sample_loss(model, rng):
    if model.loss_probability <= 0:
        return False
    return rng.random() < model.loss_probability


def _old_sample_latency(model, rng):
    if type(model) is UniformLatency:
        return model.base_seconds + rng.uniform(0, model.spread_seconds)
    return model.sample_latency(rng)


def old_send(network, sender, receiver, packet):
    """The previous ``Network.send``: one receiver per call."""
    if receiver not in network._adjacency.get(sender, ()):
        network._counters["net.send_no_link"] += 1
        return False
    rng = network.simulator.entity_rng(sender)
    if _old_sample_loss(network.latency, rng):
        network._counters["net.packets_lost"] += 1
        return False
    delay = _old_sample_latency(network.latency, rng)
    network._counters["net.packets_sent"] += 1
    network.simulator.schedule_port(
        "net.deliver", [(delay, (sender, receiver, packet), receiver)]
    )
    return True


class Relay:
    """Records deliveries; a first-hop packet is relayed to the node's
    neighbours, so sends also happen inside running events."""

    def __init__(self, world, node_id):
        self.world, self.node_id = world, node_id

    def deliver(self, from_peer, packet):
        world = self.world
        world.log.append((world.sim.now, from_peer, self.node_id, packet))
        ident, hop = packet
        if hop == 0:
            world.fan_out(self.node_id, world.targets(self.node_id), (ident, 1))


@dataclass(frozen=True)
class GaussLatency(LatencyModel):
    """Log-normal latency with no floor. ``rng.gauss`` draws two
    ``random()`` values every second call and none on the other, so
    the stream advances unevenly from one sample to the next."""

    sigma: float = 0.5

    def sample_latency(self, rng):
        return self.base_seconds * math.exp(rng.gauss(0.0, self.sigma))

    def min_latency(self):
        return 0.0


MODELS = {
    "lossy": LatencyModel(base_seconds=0.05, loss_probability=0.3),
    "uniform": UniformLatency(base_seconds=0.03, spread_seconds=0.05),
    "gauss": GaussLatency(base_seconds=0.05),
}


def make_kernel(kind, model):
    if kind == "serial":
        return Simulator(seed=11)
    # Two shards, this worker owning one: foreign deliveries export. A
    # model without a latency floor cannot span shards in a window.
    shards = 2 if model.min_latency() > 0 else 1
    sim = WindowedStackSimulator(
        seed=11,
        plan=ShardPlan(shards, NODES),
        window=model.min_latency() or 0.05,
    )
    if shards == 2:
        sim.restrict_to(frozenset({0}))
    return sim


class World:
    def __init__(self, kind, model, batched):
        self.kind, self.batched = kind, batched
        self.sim = make_kernel(kind, model)
        self.network = Network(self.sim, latency=model)
        self.log = []
        for node_id in NODES + (STRANGER,):
            self.network.attach(Relay(self, node_id))
        for i, a in enumerate(NODES):
            for b in NODES[i + 1 :]:
                if (i + len(b)) % 3:  # a fixed, partial overlay
                    self.network.connect(a, b)
        self.sent = []

    def targets(self, sender):
        # Sorted like every router fan-out, plus one missing link.
        return sorted(self.network.neighbor_set(sender)) + [STRANGER]

    def fan_out(self, sender, receivers, packet):
        if self.batched:
            self.sent.append(self.network.send(sender, receivers, packet))
        else:
            self.sent.append(
                sum(old_send(self.network, sender, r, packet) for r in receivers)
            )

    def apply(self, step):
        kind, node, ident = step
        if kind == "send":
            self.fan_out(node, self.targets(node), (ident, 0))
        elif kind == "churn" and node in self.network.node_ids():
            self.network.detach(node)  # in flight to it: dead letters
        elif kind == "advance":
            if self.kind == "serial":
                self.sim.run(until=self.sim.now + 0.04)
            else:
                self.sim.run_window(self.sim.now + self.sim.window)

    def state(self):
        sim = self.sim
        if self.kind == "serial":
            heap = sorted((e[0], e[1], e[3]) for e in sim._queue)
            exports = []
            rngs = [sim.rng.getstate()]
        else:
            heap = sorted(
                (t, o, s, r.payload, r.label, r.shard, r.ckey)
                for t, o, s, r in sim._heap
            )
            exports = list(sim._exports)
            rngs = [sim.entity_rng(n).getstate() for n in NODES]
        return {
            "heap": heap,
            "exports": exports,
            "rngs": rngs,
            "counters": dict(self.network.metrics.counters),
            "sent": list(self.sent),
            "log": list(self.log),
            "now": sim.now,
        }


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.sampled_from(NODES), st.integers(0, 99)),
        st.tuples(st.just("send"), st.sampled_from(NODES), st.integers(0, 99)),
        st.tuples(st.just("advance"), st.none(), st.none()),
        st.tuples(st.just("churn"), st.sampled_from(NODES), st.none()),
    ),
    max_size=25,
)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("kind", ["serial", "windowed"])
@settings(max_examples=40, deadline=None)
@given(steps=STEPS)
def test_fan_out_equals_per_target_sends(kind, model, steps):
    fast = World(kind, MODELS[model], batched=True)
    oracle = World(kind, MODELS[model], batched=False)
    assert fast.state() == oracle.state()
    for step in steps:
        fast.apply(step)
        oracle.apply(step)
        assert fast.state() == oracle.state(), step
    for world in (fast, oracle):
        world.apply(("advance", None, None))
    assert fast.state() == oracle.state()


@pytest.mark.parametrize("kind", ["serial", "windowed"])
def test_a_scripted_fan_out_hits_every_case(kind):
    """Loss, a missing link, a dead letter and a relayed hop, each at
    least once, and still equal."""
    script = [("send", node, i) for i, node in enumerate(NODES)]
    script += [("churn", "n2", None)] + [("advance", None, None)] * 6
    worlds = [World(kind, MODELS["lossy"], batched) for batched in (1, 0)]
    for world in worlds:
        for step in script:
            world.apply(step)
    fast, oracle = worlds
    assert fast.state() == oracle.state()
    counters = fast.network.metrics.counters
    assert counters["net.packets_lost"] > 0
    assert counters["net.send_no_link"] > 0
    assert counters["net.packets_sent"] > len(NODES)  # relayed hops
    if kind == "serial":
        assert counters["net.packets_dead_lettered"] > 0
    else:
        assert fast.state()["exports"]
