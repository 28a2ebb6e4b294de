"""Signal verification — the router side of the RLN framework.

A routing peer checks three things about every incoming signal (paper
Section III, "Routing and Slashing"); this module implements the two
cryptographic ones, leaving the epoch-window check to
:mod:`repro.core.validator` where the local clock lives:

1. the zkSNARK proof verifies against the signal's public inputs;
2. the proof's Merkle root is one the verifier's synced group accepts;
3. the revealed share abscissa really is ``H(m)`` — otherwise a spammer
   could publish two messages while leaking two points of a *different*
   line, defeating slashing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

from ..crypto.field import Fr
from ..crypto.hashing import hash_bytes_to_field
from ..crypto.zksnark import groth16
from ..crypto.zksnark.groth16 import VerifyingKey
from ..sim.metrics import MetricsRegistry
from .nullifier import external_nullifier
from .signal import RlnSignal

#: Default capacity of a :class:`VerificationCache`: large enough that
#: one attack round's distinct signals all fit, so each proof is
#: verified once network-wide.
DEFAULT_VERIFICATION_CACHE_SIZE = 65536


class SignalCheck(Enum):
    """Outcome of verifying one signal."""

    VALID = "valid"
    INVALID_PROOF = "invalid_proof"
    UNKNOWN_ROOT = "unknown_root"
    BAD_SHARE_BINDING = "bad_share_binding"
    BAD_EXTERNAL_NULLIFIER = "bad_external_nullifier"


class PureCheck(Enum):
    """Progress of the *stateless* checks for one distinct signal.

    These checks — external-nullifier derivation, share/message binding
    and the zkSNARK pairing check — depend only on the signal itself
    (plus the deployment's verifying key and domain), so their outcome
    is identical at every router and can be computed once network-wide.
    The root-window, epoch-window and nullifier-map checks are per-router
    state and are never cached.
    """

    BAD_EXTERNAL_NULLIFIER = "bad_external_nullifier"
    BAD_SHARE_BINDING = "bad_share_binding"
    #: Nullifier + binding passed; the proof itself not yet verified
    #: (first router rejected the root before reaching the proof).
    BINDING_OK = "binding_ok"
    VALID = "valid"
    INVALID_PROOF = "invalid_proof"


@dataclass
class SignalEntry:
    """One distinct signal's cached parse + pure-check progress.

    ``signal`` is ``None`` for raw bytes that failed to deserialize
    (malformed spam is also worth remembering network-wide).
    """

    signal: Optional[RlnSignal]
    state: Optional[PureCheck] = None


class VerificationCache:
    """Bounded LRU memo of per-signal verification work.

    Routers may *share* one cache: every peer of a deployment holds the
    same verifying key and domain, so the deserialized signal and the
    outcome of its stateless checks (:class:`PureCheck`) are
    network-global facts. A signal verified by the first honest router
    costs every later router a dictionary lookup instead of field
    parsing, two hashes and a pairing check — the batched-verification
    fast path that makes 5k-peer scenarios tractable.

    Verifiers with different *domain* tags (one RLN group per topic)
    may share a cache safely: every key is namespaced by the verifier's
    domain, so a signal replayed from one topic onto another never
    reuses the first topic's memoised outcome. Do **not** share a cache
    between verifiers with different verifying keys.
    """

    def __init__(
        self, max_entries: int = DEFAULT_VERIFICATION_CACHE_SIZE
    ) -> None:
        if max_entries < 1:
            raise ValueError("cache needs room for at least one entry")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[object, SignalEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: object) -> Optional[SignalEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: object, entry: SignalEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Merge rank of a memoised pure-check state: a barrier merge keeps the
#: most advanced outcome for a key. ``None`` (parsed, nothing checked)
#: < ``BINDING_OK`` (binding checked, proof pending) < any terminal
#: outcome.
_STATE_RANK = {
    None: 0,
    PureCheck.BINDING_OK: 1,
    PureCheck.BAD_EXTERNAL_NULLIFIER: 2,
    PureCheck.BAD_SHARE_BINDING: 2,
    PureCheck.VALID: 2,
    PureCheck.INVALID_PROOF: 2,
}

#: One barrier-memo write: ``(write_key, cache_key, entry)`` where
#: ``write_key`` is a partition-invariant ``(time, origin, seq)`` tuple.
MemoOp = Tuple[Tuple, object, SignalEntry]


class BarrierMemoCache:
    """A :class:`VerificationCache` for the window-isolated kernel.

    Sharing a plain LRU between routers on different shards would leak
    intra-window state across the isolation boundary: whether router B
    gets a hit would depend on whether router A ran in the same process
    earlier in the same window — i.e. on the shard/worker layout. This
    variant restores sharing without the leak:

    * **Reads see only the committed snapshot** — the state as of the
      last barrier, identical on every worker. A hit hands back a
      *copy*, so the verifier's in-place state advancement never
      mutates the snapshot mid-window.
    * **Writes buffer as pending ops** keyed by the simulator's
      partition-invariant ``(time, origin, seq)`` counter (the same
      one the chain replica orders its ops with). :meth:`drain`
      snapshots them at the barrier; :meth:`commit` applies a merged
      batch in write-key order with most-progress-wins conflict
      resolution, so every worker's committed snapshot evolves
      identically whatever subset of the writes it produced itself.
    * **Eviction is FIFO in commit order** (no move-to-end on reads):
      read recency is layout-dependent under isolation, insertion
      order after a sorted merge is not.

    The cost of soundness is one window of staleness — a signal first
    verified in window N saves work from window N+1 on.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_VERIFICATION_CACHE_SIZE,
        key_source: Optional[Callable[[], Tuple]] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("cache needs room for at least one entry")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._committed: "OrderedDict[object, SignalEntry]" = OrderedDict()
        self._pending: list = []
        self._key_source = key_source if key_source is not None else tuple

    def __len__(self) -> int:
        return len(self._committed)

    def get(self, key: object) -> Optional[SignalEntry]:
        committed = self._committed.get(key)
        if committed is None:
            self.misses += 1
            return None
        self.hits += 1
        entry = SignalEntry(committed.signal, committed.state)
        # Re-record the copy as a pending write: if the verifier
        # advances it this window (BINDING_OK -> VALID), the progress
        # ships at the barrier like any first-time write.
        self._pending.append((self._key_source(), key, entry))
        return entry

    def put(self, key: object, entry: SignalEntry) -> None:
        self._pending.append((self._key_source(), key, entry))

    def drain(self) -> "list[MemoOp]":
        """Snapshot and clear this window's writes (barrier exchange).

        Entries are copied at drain time so the delta captures any
        in-place advancement the verifier did after the ``put``, and
        later mutation of a still-referenced entry cannot reach into
        a committed snapshot.
        """
        pending, self._pending = self._pending, []
        return [
            (wkey, key, SignalEntry(entry.signal, entry.state))
            for wkey, key, entry in pending
        ]

    def commit(self, ops: "list[MemoOp]") -> None:
        """Apply one barrier's merged write batch to the snapshot."""
        committed = self._committed
        for _wkey, key, entry in sorted(ops, key=lambda op: op[0]):
            current = committed.get(key)
            if current is None:
                committed[key] = SignalEntry(entry.signal, entry.state)
            elif _STATE_RANK[entry.state] > _STATE_RANK[current.state]:
                current.signal = entry.signal
                current.state = entry.state
        while len(committed) > self.max_entries:
            committed.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _pure_key(signal: RlnSignal) -> Tuple:
    """Cache key for a signal reached without its wire encoding."""
    return (signal.epoch, signal.message, *signal.public_inputs(), signal.proof)


@dataclass(slots=True)
class RlnVerifier:
    """Verifies signals against a synced view of the membership group.

    ``root_predicate`` decides whether a Merkle root is acceptable —
    typically :meth:`LocalGroup.is_acceptable_root` of the router's
    replica. ``domain`` must match the publishers' domain tag.

    ``cache`` (optional, usually shared by every router of a deployment)
    memoises the stateless checks; ``metrics`` counts raw zkSNARK
    verifications and cache reuse under ``rln.proof_verifications`` /
    ``rln.proof_cache_hits``.
    """

    verifying_key: VerifyingKey
    root_predicate: Callable[[Fr], bool]
    domain: Optional[str] = None
    cache: Optional[VerificationCache] = None
    metrics: Optional[MetricsRegistry] = None

    def check(
        self, signal: RlnSignal, entry: Optional[SignalEntry] = None
    ) -> SignalCheck:
        """Classify a signal; :data:`SignalCheck.VALID` means relayable
        (pending the epoch/nullifier-map checks at the peer layer).

        Check order is identical with and without a cache: nullifier,
        share binding, root window, proof — so enabling the cache never
        changes an outcome, only the work done to reach it.
        """
        if entry is None:
            if self.cache is not None:
                key = (self.domain, *_pure_key(signal))
                entry = self.cache.get(key)
                if entry is None:
                    entry = SignalEntry(signal)
                    self.cache.put(key, entry)
            else:
                entry = SignalEntry(signal)

        state = entry.state
        if state is None:
            state = self._check_binding(signal)
            entry.state = state
        if state is PureCheck.BAD_EXTERNAL_NULLIFIER:
            return SignalCheck.BAD_EXTERNAL_NULLIFIER
        if state is PureCheck.BAD_SHARE_BINDING:
            return SignalCheck.BAD_SHARE_BINDING
        if not self.root_predicate(signal.merkle_root):
            return SignalCheck.UNKNOWN_ROOT
        if state is PureCheck.BINDING_OK:
            state = (
                PureCheck.VALID
                if self._verify_proof(signal)
                else PureCheck.INVALID_PROOF
            )
            entry.state = state
        elif self.metrics is not None:
            # Only count a hit when the memoised proof outcome actually
            # replaced a pairing check this router would have run (the
            # naive path never verifies signals it rejects earlier).
            self.metrics.counters["rln.proof_cache_hits"] += 1
        return (
            SignalCheck.VALID
            if state is PureCheck.VALID
            else SignalCheck.INVALID_PROOF
        )

    def wire_cache_key(self, raw_signal: bytes) -> Tuple:
        """Cache key for a signal's wire bytes, namespaced by this
        verifier's domain (the memoised checks are domain-dependent)."""
        return (self.domain, raw_signal)

    def _check_binding(self, signal: RlnSignal) -> PureCheck:
        if signal.external_nullifier != external_nullifier(
            signal.epoch, self.domain
        ):
            return PureCheck.BAD_EXTERNAL_NULLIFIER
        if signal.share.x != hash_bytes_to_field(signal.message):
            return PureCheck.BAD_SHARE_BINDING
        return PureCheck.BINDING_OK

    def _verify_proof(self, signal: RlnSignal) -> bool:
        if self.metrics is not None:
            self.metrics.counters["rln.proof_verifications"] += 1
        return groth16.verify(
            self.verifying_key, signal.proof, signal.public_inputs()
        )

    def is_valid(self, signal: RlnSignal) -> bool:
        return self.check(signal) is SignalCheck.VALID
