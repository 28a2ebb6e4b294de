"""Topology generators for network simulations.

GossipSub deployments form approximately random-regular overlays (every
peer keeps ~D mesh links), so that is the overlay every scenario uses.
The random-regular generator is stdlib only: scenario overlays do not
depend on the installed NetworkX version and the scenario path does not
load it. Only :func:`diameter` imports NetworkX, when called. The
resulting edges are wired into a :class:`~repro.net.network.Network`.
"""

from __future__ import annotations

import random
from collections import defaultdict
from operator import itemgetter
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import NetworkError
from .network import Network, NodeId

Edge = Tuple[int, int]


def _apply_edges(
    network: Network, node_ids: Sequence[NodeId], edges: Collection[Edge]
) -> int:
    for a, b in edges:
        network.connect(node_ids[a], node_ids[b])
    return len(edges)


def _random_regular_edges(degree: int, n: int, seed: int) -> List[Edge]:
    """Edges of a random ``degree``-regular graph on nodes ``0..n-1``.

    The Steger-Wormald pairing algorithm, ported statement for
    statement from ``networkx.random_regular_graph`` onto
    ``random.Random(seed)``: same shuffles, same edges, in the order
    ``nx.random_regular_graph(degree, n, seed).edges()`` listed them —
    the order of ``Network.connect`` calls reaches every fingerprint.
    """
    rng = random.Random(seed)

    def suitable(edges: Set[Edge], potential_edges: Dict[int, int]) -> bool:
        # False when no pair of nodes with free stubs can still be joined.
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break  # each unordered pair once
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def try_creation() -> Optional[Set[Edge]]:
        edges: Set[Edge] = set()
        stubs = list(range(n)) * degree
        while stubs:
            potential_edges: Dict[int, int] = defaultdict(int)
            rng.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not suitable(edges, potential_edges):
                return None
            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    # An attempt can paint itself into a corner; retry on the same
    # generator until one succeeds.
    edges = try_creation()
    while edges is None:
        edges = try_creation()
    # Graph.edges() order after add_edges_from(edges): nodes ascending,
    # each node's higher neighbours in the set's iteration order — a
    # stable sort of that iteration by the lower endpoint.
    return sorted(edges, key=itemgetter(0))


def connect_random_regular(
    network: Network, node_ids: Sequence[NodeId], degree: int, seed: int = 0
) -> int:
    """Random ``degree``-regular overlay (the GossipSub-like default)."""
    n = len(node_ids)
    if degree < 0:
        raise NetworkError(f"degree must not be negative, got {degree}")
    if n <= degree:
        raise NetworkError(f"need more than {degree} nodes, got {n}")
    if (n * degree) % 2:
        raise NetworkError("n * degree must be even for a regular graph")
    return _apply_edges(
        network, node_ids, _random_regular_edges(degree, n, seed)
    )


def connect_full_mesh(network: Network, node_ids: Sequence[NodeId]) -> int:
    """Every pair connected (tiny test networks only)."""
    count = 0
    for i, a in enumerate(node_ids):
        for b in node_ids[i + 1 :]:
            network.connect(a, b)
            count += 1
    return count


def diameter(network: Network) -> int:
    """Hop diameter of the current overlay (for experiment reporting)."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(network.node_ids())
    for node_id in network.node_ids():
        for neighbor in network.neighbors(node_id):
            graph.add_edge(node_id, neighbor)
    if graph.number_of_nodes() == 0:
        return 0
    if not nx.is_connected(graph):
        raise NetworkError("overlay is not connected")
    return nx.diameter(graph)

