"""Deterministic discrete-event simulation kernel and latency models."""
