"""The routing-peer validation pipeline (paper Section III, "Routing
and Slashing").

A routing peer applies, in order:

1. **Proof validity** — the zkSNARK verifies against the signal's
   public inputs and an acceptable membership root → otherwise REJECT
   (and the gossip layer penalises the forwarding peer, P4);
2. **Epoch window** — ``|local epoch - signal epoch| > Thr`` →
   REJECT (prevents a new member from spamming all past epochs);
3. **Nullifier map** — same nullifier + same share: duplicate → IGNORE;
   same nullifier + different share: **double-signal** → drop the
   message and emit :class:`~repro.rln.slashing.SlashingEvidence` so the
   peer can claim the on-chain reward.

The outcome feeds straight into the gossipsub validator hook, so
invalid spam never propagates beyond the first honest hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional

from ..errors import SerializationError
from ..rln.signal import RlnSignal
from ..rln.slashing import SlashingEvidence, detect_double_signal
from ..rln.verifier import RlnVerifier, SignalCheck, SignalEntry
from ..sim.metrics import MetricsRegistry
from .epoch import EpochTracker
from .nullifier_map import NullifierCheck, NullifierMap


class ValidationOutcome(Enum):
    """What the router should do with a message."""

    RELAY = "relay"
    REJECT_INVALID_PROOF = "reject_invalid_proof"
    REJECT_BAD_EPOCH = "reject_bad_epoch"
    REJECT_MALFORMED = "reject_malformed"
    IGNORE_DUPLICATE = "ignore_duplicate"
    DROP_SPAM = "drop_spam"


@dataclass
class ValidationReport:
    """Outcome plus any slashing evidence produced along the way."""

    outcome: ValidationOutcome
    signal: Optional[RlnSignal] = None
    evidence: Optional[SlashingEvidence] = None


#: Called whenever validation uncovers a double-signal.
SpamCallback = Callable[[SlashingEvidence], None]


@dataclass(slots=True)
class RlnMessageValidator:
    """Stateful per-router validator combining all Section III checks."""

    verifier: RlnVerifier
    epoch_tracker: EpochTracker
    nullifier_map: NullifierMap
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    spam_callbacks: List[SpamCallback] = field(default_factory=list)

    def on_spam(self, callback: SpamCallback) -> None:
        self.spam_callbacks.append(callback)

    def validate_bytes(self, raw_signal: Optional[bytes]) -> ValidationReport:
        """Validate a serialized signal (``None`` = missing proof field).

        With a (shared) verification cache attached, the deserialized
        signal and its stateless-check progress are memoised by the raw
        bytes, so a signal the mesh delivers to thousands of routers is
        parsed and proof-checked once network-wide.
        """
        if raw_signal is None:
            self.metrics.counters["validator.missing_proof"] += 1
            return ValidationReport(ValidationOutcome.REJECT_MALFORMED)
        cache = self.verifier.cache
        entry: Optional[SignalEntry] = None
        key = None
        if cache is not None:
            key = self.verifier.wire_cache_key(raw_signal)
            entry = cache.get(key)
        if entry is None:
            try:
                signal = RlnSignal.from_bytes(raw_signal)
            except SerializationError:
                if cache is not None:
                    cache.put(key, SignalEntry(signal=None))
                self.metrics.counters["validator.malformed"] += 1
                return ValidationReport(ValidationOutcome.REJECT_MALFORMED)
            entry = SignalEntry(signal)
            if cache is not None:
                cache.put(key, entry)
        elif entry.signal is None:
            self.metrics.counters["validator.malformed"] += 1
            return ValidationReport(ValidationOutcome.REJECT_MALFORMED)
        return self.validate(entry.signal, entry)

    def validate(
        self, signal: RlnSignal, entry: Optional[SignalEntry] = None
    ) -> ValidationReport:
        # 0. duplicate fast path: a copy of the exact signal recorded
        # for this (epoch, phi) already survived the full pipeline
        # once, so it can be ignored without re-running verification.
        # Field-for-field equality is required — a *tampered* variant
        # (same share abscissa, different y/proof bytes) must fall
        # through to the crypto checks so it is REJECTed (P4 penalty),
        # exactly as before this fast path existed.
        peeked, prior_record = self.nullifier_map.peek(signal)
        if (
            peeked is NullifierCheck.DUPLICATE
            and prior_record is not None
            and prior_record.signal == signal
        ):
            self.metrics.counters["validator.duplicates"] += 1
            self.metrics.counters["validator.duplicate_fast_path"] += 1
            return ValidationReport(ValidationOutcome.IGNORE_DUPLICATE, signal)
        # 1. cryptographic checks (proof, root, share binding).
        check = self.verifier.check(signal, entry)
        if check is not SignalCheck.VALID:
            self.metrics.counters[f"validator.{check.value}"] += 1
            return ValidationReport(
                ValidationOutcome.REJECT_INVALID_PROOF, signal
            )
        # 2. epoch window.
        if not self.epoch_tracker.is_within_threshold(
            signal.epoch, self.nullifier_map.thr
        ):
            self.metrics.counters["validator.bad_epoch"] += 1
            return ValidationReport(ValidationOutcome.REJECT_BAD_EPOCH, signal)
        # 3. nullifier map.
        result, prior = self.nullifier_map.observe(signal)
        if result is NullifierCheck.DUPLICATE:
            self.metrics.counters["validator.duplicates"] += 1
            return ValidationReport(ValidationOutcome.IGNORE_DUPLICATE, signal)
        if result is NullifierCheck.DOUBLE_SIGNAL:
            assert prior is not None
            evidence = detect_double_signal(prior.signal, signal)
            self.metrics.counters["validator.double_signals"] += 1
            if evidence is not None:
                for callback in self.spam_callbacks:
                    callback(evidence)
            return ValidationReport(
                ValidationOutcome.DROP_SPAM, signal, evidence
            )
        self.metrics.counters["validator.relayed"] += 1
        return ValidationReport(ValidationOutcome.RELAY, signal)

    def housekeeping(self) -> int:
        """Prune the nullifier map to the current acceptance window."""
        return self.nullifier_map.prune(self.epoch_tracker.current_epoch)
