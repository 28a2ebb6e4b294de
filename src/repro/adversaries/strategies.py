"""Built-in attacker strategies and their registry.

Four archetypes from the paper's threat discussion, all behind the
common :class:`~repro.adversaries.base.AdversaryStrategy` interface:

* ``burst-flood`` — the classic one-shot spammer the paper-figure
  experiments (E7, E10) throw at the network: a fixed burst for a
  fixed number of epochs, no rotation. Dies with its first identity.
* ``rotating-sybil`` — keeps bursting and, whenever the network slashes
  it, buys a fresh identity while the budget lasts; the attacker the
  cost-of-attack curves are about.
* ``low-and-slow`` — stays at the one-message-per-epoch limit and only
  occasionally emits a second message, probing how quickly violations
  are detected while spending as little stake as possible.
* ``adaptive-backoff`` — adjusts its burst size to the observed slash
  latency: fast slashing halves the burst, slow or absent slashing
  grows it. Converges to the most spam the network lets it get away
  with per stake.

Add a strategy by subclassing ``AdversaryStrategy`` and registering a
factory with :func:`register_strategy`; scenario specs then name it in
an ``AdversaryGroup``.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ScenarioError
from .base import AdversaryAgent, AdversaryStrategy


class BurstFlooder(AdversaryStrategy):
    """Fixed burst each epoch for ``epochs`` epochs; never rotates."""

    name = "burst-flood"
    rotate_on_slash = False

    def __init__(self, burst: int = 5, epochs: int = 3) -> None:
        self.burst = burst
        self.epochs = epochs

    def messages_for_epoch(
        self, agent: AdversaryAgent, epoch_index: int
    ) -> int:
        return self.burst if epoch_index < self.epochs else 0

    def finished(self, agent: AdversaryAgent, epoch_index: int) -> bool:
        return epoch_index >= self.epochs


class RotatingSybil(AdversaryStrategy):
    """Bursts every epoch and re-registers after every slash."""

    name = "rotating-sybil"
    rotate_on_slash = True

    def __init__(self, burst: int = 4) -> None:
        self.burst = burst

    def messages_for_epoch(
        self, agent: AdversaryAgent, epoch_index: int
    ) -> int:
        return self.burst


class LowAndSlow(AdversaryStrategy):
    """Stays at the legal one-message-per-epoch rate, probing rarely.

    Every ``probe_every``-th epoch it emits a second message — the
    minimal detectable violation — to measure how fast the network
    reacts, rotating to a fresh identity when caught.
    """

    name = "low-and-slow"
    rotate_on_slash = True

    def __init__(self, probe_every: int = 4) -> None:
        if probe_every < 1:
            raise ScenarioError("probe_every must be >= 1")
        self.probe_every = probe_every
        self._epochs_active = 0

    def messages_for_epoch(
        self, agent: AdversaryAgent, epoch_index: int
    ) -> int:
        self._epochs_active += 1
        if self._epochs_active % self.probe_every == 0:
            return 2  # the minimal detectable violation
        return 1


class AdaptiveBackoff(AdversaryStrategy):
    """Tunes its burst to the observed slash latency.

    A slash arriving within ``fast_latency_epochs`` of the first
    violation halves the burst (the network reacts too fast for big
    bursts to pay); a slower slash grows it by one, and surviving
    three consecutive epochs unpunished at the current burst grows
    it by two.
    """

    name = "adaptive-backoff"
    rotate_on_slash = True

    def __init__(
        self,
        burst: int = 8,
        min_burst: int = 2,
        max_burst: int = 64,
        fast_latency_epochs: float = 1.5,
    ) -> None:
        self.burst = burst
        self.min_burst = min_burst
        self.max_burst = max_burst
        self.fast_latency_epochs = fast_latency_epochs
        #: (latency_seconds) history, for the attack report.
        self.observed_latencies: List[float] = []
        self._epochs_unslashed_at_burst = 0

    def messages_for_epoch(
        self, agent: AdversaryAgent, epoch_index: int
    ) -> int:
        self._epochs_unslashed_at_burst += 1
        if self._epochs_unslashed_at_burst > 2:
            # Third consecutive epoch without punishment: push harder.
            self.burst = min(self.max_burst, self.burst + 2)
            self._epochs_unslashed_at_burst = 0
        return self.burst

    def on_slashed(self, agent: AdversaryAgent, latency: float) -> None:
        self.observed_latencies.append(latency)
        epoch_length = agent.peer.config.epoch_length
        if latency <= self.fast_latency_epochs * epoch_length:
            self.burst = max(self.min_burst, self.burst // 2)
        else:
            self.burst = min(self.max_burst, self.burst + 1)
        self._epochs_unslashed_at_burst = 0


#: name -> factory(**params) building a fresh per-agent instance.
_STRATEGIES: Dict[str, Callable[..., AdversaryStrategy]] = {}


def register_strategy(
    name: str, factory: Callable[..., AdversaryStrategy]
) -> None:
    """Make a strategy buildable from scenario specs by name."""
    if name in _STRATEGIES:
        raise ScenarioError(f"strategy {name!r} is already registered")
    _STRATEGIES[name] = factory


def strategy_names() -> List[str]:
    return sorted(_STRATEGIES)


def strategy_summaries() -> List[Tuple[str, str]]:
    """``(name, one-line description)`` for every registered strategy."""
    out = []
    for name in strategy_names():
        doc = (_STRATEGIES[name].__doc__ or "").strip()
        out.append((name, doc.splitlines()[0] if doc else ""))
    return out


def build_strategy(
    name: str, burst: Optional[int] = None, **params: object
) -> AdversaryStrategy:
    """Instantiate a registered strategy (fresh instance per agent).

    ``burst`` is the scenario-level default burst size; it is forwarded
    only to factories that take a ``burst`` parameter (``low-and-slow``,
    for instance, has no burst — its rate is the point), and an explicit
    ``burst`` in ``params`` wins over it.
    """
    try:
        factory = _STRATEGIES[name]
    except KeyError:
        raise ScenarioError(
            f"unknown adversary strategy {name!r}; "
            f"choose from {strategy_names()}"
        ) from None
    if burst is not None and "burst" not in params:
        if "burst" in inspect.signature(factory).parameters:
            params["burst"] = burst
    try:
        return factory(**params)
    except TypeError as exc:
        raise ScenarioError(
            f"bad parameters for strategy {name!r}: {exc}"
        ) from None


register_strategy("burst-flood", BurstFlooder)
register_strategy("rotating-sybil", RotatingSybil)
register_strategy("low-and-slow", LowAndSlow)
register_strategy("adaptive-backoff", AdaptiveBackoff)
