"""Link-latency models for the simulated network.

The epoch-validation rule of the paper depends directly on the maximum
network delay ``D`` (Thr = D / T), so latency is a first-class model
object rather than a hard-coded constant. All models are deterministic
given the simulator's RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyModel:
    """Base class: constant latency, optional loss.

    A packet is lost when ``loss_probability > 0`` and a draw from the
    sender's stream falls below it (:meth:`Network.send` draws it before
    the packet's latency).
    """

    base_seconds: float = 0.05
    loss_probability: float = 0.0

    def sample_latency(self, rng: random.Random) -> float:
        return self.base_seconds

    def min_latency(self) -> float:
        """A proven lower bound on every latency sample.

        The parallel full-stack kernel sizes its barrier window to
        this bound: any message sent inside window ``[t0, t1)`` with
        ``t1 - t0 <= min_latency()`` arrives at or after ``t1``, so
        cross-shard traffic never lands inside the window it was sent
        in. Models whose samples can get arbitrarily close to zero
        must return 0.0 (which rejects them for parallel runs).
        """
        return self.base_seconds


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Uniform latency in ``[base, base + spread]``."""

    spread_seconds: float = 0.05

    def sample_latency(self, rng: random.Random) -> float:
        # ``rng.uniform(0, spread)`` is ``0 + (spread - 0) * random()``:
        # the same float, without its frame.
        return self.base_seconds + self.spread_seconds * rng.random()


#: The relay networks' default link latency (30-80 ms per hop).
DEFAULT_LATENCY = UniformLatency(base_seconds=0.03)
