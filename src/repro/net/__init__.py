"""Simulated p2p network: nodes, links, delivery, topologies."""
