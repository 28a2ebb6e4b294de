"""The nullifier map: per-epoch log of seen shares.

Section III: "each routing peer locally keeps a record of the secret key
share [sk] and the internal nullifier phi of all of its incoming
messages for the past Thr epochs"; new messages are checked against it
to spot double-signaling, and entries older than the acceptance window
are garbage-collected because such messages "are considered invalid by
default" anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

from ..crypto.field import Fr
from ..rln.signal import RlnSignal


class NullifierCheck(Enum):
    """Classification of a signal against the map."""

    NEW = "new"  # first signal with this nullifier — record and relay
    DUPLICATE = "duplicate"  # byte-identical share seen before — ignore
    DOUBLE_SIGNAL = "double_signal"  # same nullifier, different share: spam


@dataclass(frozen=True, slots=True)
class NullifierRecord:
    """What a router remembers per (epoch, internal nullifier): a view
    over the first-recorded signal. The map stores that signal itself
    (one object network-wide through the verification cache) and builds
    a record only when it has a prior observation to report.
    """

    signal: RlnSignal


class NullifierMap:
    """Sliding-window map ``epoch -> internal nullifier -> first signal``.

    With ``auto_prune`` on, garbage collection rides the epoch grid
    itself: the moment a bucket for a *new latest* epoch is created,
    every bucket at distance > ``thr`` from it is dropped — O(1)
    amortised, no timer needed, and live state stays bounded by
    ``(2 thr + 1)`` epochs regardless of run length. Off (the default),
    pruning only happens when :meth:`prune` is called explicitly (the
    peers' periodic housekeeping timer), preserving the exact
    observation timing of earlier revisions.
    """

    __slots__ = ("thr", "auto_prune", "_epochs", "_max_epoch",
                 "auto_pruned_entries")

    def __init__(self, thr: int, auto_prune: bool = False) -> None:
        if thr < 1:
            raise ValueError("thr must be at least 1")
        self.thr = thr
        self.auto_prune = auto_prune
        self._epochs: Dict[int, Dict[Fr, RlnSignal]] = {}
        self._max_epoch: Optional[int] = None
        #: Entries dropped by epoch-grid GC (stat; explicit prune() not
        #: included).
        self.auto_pruned_entries = 0

    # -- core operation ---------------------------------------------------------

    def observe(
        self, signal: RlnSignal
    ) -> Tuple[NullifierCheck, Optional[NullifierRecord]]:
        """Record ``signal``; classify it against previous observations.

        Returns ``(NEW, None)``, ``(DUPLICATE, prior)`` or
        ``(DOUBLE_SIGNAL, prior)`` where ``prior`` is the conflicting
        earlier record (the second Shamir share needed for slashing).
        """
        check, prior = self.peek(signal)
        if check is NullifierCheck.NEW:
            epoch = signal.epoch
            bucket = self._epochs.get(epoch)
            if bucket is None:
                bucket = self._epochs[epoch] = {}
                if self.auto_prune and (
                    self._max_epoch is None or epoch > self._max_epoch
                ):
                    self._max_epoch = epoch
                    self.auto_pruned_entries += self.prune(epoch)
            bucket[signal.internal_nullifier] = signal
        return check, prior

    def peek(
        self, signal: RlnSignal
    ) -> Tuple[NullifierCheck, Optional[NullifierRecord]]:
        """Classify ``signal`` without recording it.

        A DUPLICATE means a signal with the same ``(epoch, phi, x)``
        was recorded earlier; callers wanting to skip re-verification
        must additionally compare the returned record's ``signal`` for
        full equality (same abscissa does not imply same proof bytes).
        """
        bucket = self._epochs.get(signal.epoch)
        prior = (
            bucket.get(signal.internal_nullifier)
            if bucket is not None
            else None
        )
        if prior is None:
            return NullifierCheck.NEW, None
        if prior.share.x == signal.share.x:
            return NullifierCheck.DUPLICATE, NullifierRecord(prior)
        return NullifierCheck.DOUBLE_SIGNAL, NullifierRecord(prior)

    # -- garbage collection --------------------------------------------------------

    def prune(self, current_epoch: int) -> int:
        """Drop epochs outside the acceptance window; returns #entries freed.

        An epoch ``e`` can still receive valid messages while
        ``|current - e| <= thr``, so everything at distance > thr goes.
        """
        expired = [
            epoch
            for epoch in self._epochs
            if abs(current_epoch - epoch) > self.thr
        ]
        freed = 0
        for epoch in expired:
            freed += len(self._epochs.pop(epoch))
        return freed

    # -- introspection ------------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return sum(len(bucket) for bucket in self._epochs.values())

    def epochs(self):
        return sorted(self._epochs)

    def storage_bytes(self) -> int:
        """Approximate persisted size: per entry phi + x + y (3 x 32 B)."""
        return 96 * self.entry_count
