"""Simulated Ethereum: gas-metered chain, membership contracts, events."""
