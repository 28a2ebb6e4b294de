"""Epoch arithmetic.

The external nullifier of Waku-RLN-Relay is the *epoch*: "the number of
T seconds that elapsed since the Unix epoch" (Section III). In the
simulation, "Unix time" is the discrete-event clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.simulator import Simulator


def epoch_at(time: float, epoch_length: float) -> int:
    """Epoch index containing the instant ``time``."""
    return int(time // epoch_length)


@dataclass
class EpochTracker:
    """A peer's local view of the current epoch.

    Peers "monitor the current epoch locally"; an optional clock skew
    models devices with drifting clocks (the reason the acceptance
    window Thr exists alongside network delay).
    """

    simulator: Simulator
    epoch_length: float
    clock_skew: float = 0.0

    @property
    def local_time(self) -> float:
        return self.simulator.now + self.clock_skew

    @property
    def current_epoch(self) -> int:
        return epoch_at(self.local_time, self.epoch_length)

    def is_within_threshold(self, epoch: int, thr: int) -> bool:
        """Section III validity rule: |local epoch - msg epoch| <= Thr."""
        return abs(self.current_epoch - epoch) <= thr
