"""Simulated peer-to-peer network: nodes, links, delayed delivery.

The network is intentionally PII-free: a packet delivered to a node
carries only the *previous hop* (the neighbour it arrived from), never
an origin address — mirroring how a gossip overlay only ever sees its
direct peers. Receiver and sender anonymity in Waku-Relay rest on this
property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Protocol, Sequence, Set

from ..errors import NetworkError, SimulationError
from ..sim.latency import LatencyModel, UniformLatency
from ..sim.metrics import MetricsRegistry
from ..sim.simulator import Simulator

#: Node identifiers are short strings ("peer-17").
NodeId = str


class NetworkNode(Protocol):
    """What the network needs from an attached protocol instance.

    Nodes may additionally define ``on_link_down(peer_id)``; the network
    calls it synchronously when a link of theirs is removed (explicit
    ``disconnect`` or a neighbour's ``detach``), which is what lets the
    gossipsub router skip per-heartbeat neighbour polling.
    """

    node_id: NodeId

    def deliver(self, from_peer: NodeId, packet: Any) -> None:
        """Handle a packet that arrived from direct neighbour ``from_peer``."""


@dataclass
class Network:
    """Bidirectional links with per-hop latency, jitter and loss.

    Adjacency is indexed per node, so :meth:`neighbors` is O(degree)
    rather than O(total links) — the difference between a 5k-peer
    heartbeat being practical or quadratic.
    """

    simulator: Simulator
    latency: LatencyModel = field(default_factory=UniformLatency)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def __post_init__(self) -> None:
        # Every delivery is a port event — a (sender, receiver, packet)
        # payload, picklable across a worker boundary — on all kernels.
        try:
            self.simulator.register_port("net.deliver", self._deliver_port)
        except SimulationError as exc:
            raise NetworkError(
                "this simulator already carries a network; build one "
                "simulator per Network"
            ) from exc
        self.simulator.register_port("net.link_up", self._link_up_port)
        self.simulator.register_port("net.link_down", self._link_down_port)
        self._nodes: Dict[NodeId, NetworkNode] = {}
        self._adjacency: Dict[NodeId, Set[NodeId]] = {}
        #: Remote endpoint -> ``(active_from, active_until)`` presence
        #: window. Membership tests against remotes must answer by the
        #: simulated clock (the churn plan's times), not by local node
        #: objects — otherwise "is this peer alive?" depends on which
        #: worker asks.
        self._remote_presence: Dict[NodeId, tuple] = {}
        # Pre-bound metric sinks: every packet touches these, and the
        # registry indirection is measurable at millions of sends.
        self._counters = self.metrics.counters
        #: Window-isolated kernel: a runtime connect/detach commits
        #: only the acting node's half synchronously.
        self._isolated = self.simulator.entity_isolated

    def _deliver_port(self, payload: Any) -> None:
        sender, receiver, packet = payload
        # The receiver may have churned out while in flight.
        target = self._nodes.get(receiver)
        if target is None:
            self._counters["net.packets_dead_lettered"] += 1
            return
        target.deliver(sender, packet)

    def _link_up_port(self, payload: Any) -> None:
        """The remote endpoint of a runtime dial learns of its new
        link (see :meth:`connect`'s window-isolated branch)."""
        node, peer = payload
        if node not in self._nodes:
            return
        self._adjacency[node].add(peer)

    def _link_down_port(self, payload: Any) -> None:
        """The remote endpoint of a runtime detach loses its link (see
        :meth:`detach`'s window-isolated branch). Link accounting
        happened on the victim's side; here only the survivor's
        adjacency and hook run."""
        victim, neighbor = payload
        if neighbor not in self._adjacency:
            return
        if victim in self._adjacency[neighbor]:
            self._adjacency[neighbor].discard(victim)
            self._notify_link_down(neighbor, victim)

    # -- membership ----------------------------------------------------------

    def attach(self, node: NetworkNode) -> None:
        if node.node_id in self._nodes:
            raise NetworkError(f"node {node.node_id!r} already attached")
        self._nodes[node.node_id] = node
        self._adjacency.setdefault(node.node_id, set())

    def attach_remote(self, node_id: NodeId) -> None:
        """Declare a node that lives on another worker.

        Build-per-worker networks hold real node objects only for the
        shards they own; every other peer of the roster is attached as
        a *remote endpoint* — an adjacency row with no node behind it —
        so build-time wiring (mesh links, topic maps) and runtime sends
        resolve normally, while actual deliveries to it are exported as
        barrier packets to the worker that owns it.
        """
        if node_id in self._nodes:
            raise NetworkError(f"node {node_id!r} already attached")
        self._adjacency.setdefault(node_id, set())
        self._remote_presence.setdefault(node_id, (0.0, float("inf")))

    def set_remote_presence(
        self,
        node_id: NodeId,
        active_from: float,
        active_until: float = float("inf"),
    ) -> None:
        """Bound a remote endpoint's liveness window (churn plan).

        A churn-plan joiner owned elsewhere exists here from its join
        time; a planned victim stops existing at its leave time. The
        window makes :meth:`__contains__` agree with the owner's live
        attach/detach to the tick: plan events are scheduled under
        ``churn-*`` build contexts, whose origins sort before every
        peer origin at equal timestamps, so the half-open
        ``[from, until)`` test reproduces the owner's execution order
        exactly.
        """
        if node_id not in self._remote_presence:
            raise NetworkError(f"{node_id!r} is not a remote endpoint")
        self._remote_presence[node_id] = (active_from, active_until)

    def detach(self, node_id: NodeId) -> None:
        """Remove a node and all of its links (crash / churn model)."""
        if node_id not in self._nodes:
            raise NetworkError(f"unknown node {node_id!r}")
        if self._isolated and self.simulator.executing:
            # Synchronously mutating every neighbour's adjacency would
            # be a hidden cross-shard write under window isolation (a
            # neighbour owned by another worker would never see it, or
            # see it at a partition-dependent time). The victim's half
            # — its own handler's doing, replayed identically on every
            # partition — commits at once; each survivor learns of the
            # loss through a keyed ``net.link_down`` port event one
            # latency draw later, owned-or-foreign alike.
            del self._nodes[node_id]
            rng = self.simulator.entity_rng(node_id)
            self.simulator.schedule_port(
                "net.link_down",
                [
                    (self.latency.sample_latency(rng), (node_id, n), n)
                    for n in sorted(self._adjacency.pop(node_id, ()))
                ],
            )
            return
        del self._nodes[node_id]
        for neighbor in self._adjacency.pop(node_id, set()):
            self._adjacency[neighbor].discard(node_id)
            self._notify_link_down(neighbor, node_id)

    def node(self, node_id: NodeId) -> NetworkNode:
        if node_id not in self._nodes:
            raise NetworkError(f"unknown node {node_id!r}")
        return self._nodes[node_id]

    def node_ids(self) -> List[NodeId]:
        return list(self._nodes)

    def __contains__(self, node_id: NodeId) -> bool:
        """Is this peer alive right now — anywhere, not just locally?

        Live local nodes count always; remote endpoints (peers owned
        by another worker) count while the simulated clock is inside
        their presence window. Runtime decisions like PX dialing go
        through this test, so it must not depend on which worker
        evaluates it.
        """
        if node_id in self._nodes:
            return True
        window = self._remote_presence.get(node_id)
        if window is None:
            return False
        return window[0] <= self.simulator.now < window[1]

    # -- links -----------------------------------------------------------------

    def connect(self, a: NodeId, b: NodeId) -> None:
        if a == b:
            raise NetworkError("cannot link a node to itself")
        for node_id in (a, b):
            # Remote endpoints (attach_remote) have an adjacency row
            # but no node object; build-time wiring links them freely.
            if node_id not in self._nodes and node_id not in self._adjacency:
                raise NetworkError(f"unknown node {node_id!r}")
        if self._isolated and self.simulator.executing:
            # A runtime dial (e.g. gossipsub Peer Exchange) under
            # window isolation. Mutating ``b``'s adjacency here would
            # be invisible to the worker that owns ``b`` — the classic
            # hidden cross-shard write — so only the dialer's half
            # commits synchronously (its own handler did it, which
            # every partition replays identically); the remote half
            # arrives as a port event one latency draw later, keyed
            # and routed like any other cross-shard packet. ``a`` can
            # send to ``b`` at once; ``b`` can answer only once its
            # half lands — on every shard/worker layout alike.
            if b in self._adjacency[a]:
                return
            self._adjacency[a].add(b)
            delay = self.latency.sample_latency(self.simulator.entity_rng(a))
            self.simulator.schedule_port("net.link_up", [(delay, (b, a), b)])
            return
        if b not in self._adjacency[a]:
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)

    def disconnect(self, a: NodeId, b: NodeId) -> None:
        if b in self._adjacency.get(a, ()):
            self._adjacency[a].discard(b)
            self._adjacency[b].discard(a)
            self._notify_link_down(a, b)
            self._notify_link_down(b, a)

    def _notify_link_down(self, node_id: NodeId, gone_peer: NodeId) -> None:
        node = self._nodes.get(node_id)
        hook = getattr(node, "on_link_down", None)
        if hook is not None:
            hook(gone_peer)

    def are_connected(self, a: NodeId, b: NodeId) -> bool:
        return b in self._adjacency.get(a, ())

    def neighbors(self, node_id: NodeId) -> List[NodeId]:
        """Direct neighbours, sorted (deterministic iteration order)."""
        return sorted(self._adjacency.get(node_id, ()))

    def degree(self, node_id: NodeId) -> int:
        """Neighbour count without materialising the sorted list."""
        return len(self._adjacency.get(node_id, ()))

    def neighbor_set(self, node_id: NodeId) -> Set[NodeId]:
        """The live adjacency set (do not mutate); O(1)."""
        return self._adjacency.get(node_id, set())

    # -- transmission -------------------------------------------------------------

    def send(
        self, sender: NodeId, receivers: Sequence[NodeId], packet: Any
    ) -> int:
        """Schedule ``packet`` to each of ``receivers`` in order, as one
        fan-out; returns how many were scheduled.

        A receiver without a link (e.g. a peer that just disconnected)
        or a packet the loss model drops is skipped and counted; gossip
        is tolerant of both. Per receiver, the loss draw (when the model
        can lose) precedes the latency draw, both from the *sender's*
        stream: shared on the serial kernel, private on the windowed
        one, so draws do not depend on shard/worker interleaving.
        """
        links = self._adjacency.get(sender, ())
        loss = self.latency.loss_probability
        sample = self.latency.sample_latency
        counters = self._counters
        items = []
        no_link = lost = 0
        rng = None  # the stream is first asked for by a linked receiver
        for receiver in receivers:
            if receiver not in links:
                no_link += 1
                continue
            if rng is None:
                rng = self.simulator.entity_rng(sender)
            if loss > 0 and rng.random() < loss:
                lost += 1
            else:
                # The receiver is the delivery's shard affinity: the
                # windowed kernel queues the event where the receiving
                # node lives (or exports it to the worker that owns it).
                payload = (sender, receiver, packet)
                items.append((sample(rng), payload, receiver))
        if no_link:
            counters["net.send_no_link"] += no_link
        if lost:
            counters["net.packets_lost"] += lost
        if items:
            counters["net.packets_sent"] += len(items)
            self.simulator.schedule_port("net.deliver", items)
        return len(items)
