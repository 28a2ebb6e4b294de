"""Deterministic discrete-event simulation kernel and latency models."""

from .latency import LatencyModel, LogNormalLatency, UniformLatency
from .metrics import Histogram, MetricsRegistry
from .parallel_stack import ShardPlan
from .simulator import EventHandle, Simulator, quiescent_gc

__all__ = [
    "Simulator",
    "EventHandle",
    "ShardPlan",
    "LatencyModel",
    "UniformLatency",
    "LogNormalLatency",
    "Histogram",
    "MetricsRegistry",
    "quiescent_gc",
]
