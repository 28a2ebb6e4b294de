"""VerificationCache LRU behaviour at capacity."""

from __future__ import annotations

import random

import pytest

from repro.crypto.keys import MembershipKeyPair
from repro.crypto.merkle import MerkleTree
from repro.rln.prover import RlnProver, rln_keys
from repro.rln.verifier import (
    RlnVerifier,
    SignalCheck,
    SignalEntry,
    VerificationCache,
)


def _entry() -> SignalEntry:
    return SignalEntry(signal=None)


class TestLruEviction:
    def test_eviction_order_is_least_recently_used(self):
        cache = VerificationCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, _entry())
        # Touch "a": it becomes most-recent; "b" is now the LRU victim.
        assert cache.get("a") is not None
        cache.put("d", _entry())
        assert len(cache) == 3
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.get("d") is not None

    def test_reinsertion_after_eviction(self):
        cache = VerificationCache(max_entries=2)
        cache.put("a", _entry())
        cache.put("b", _entry())
        cache.put("c", _entry())  # evicts "a"
        assert cache.get("a") is None
        fresh = _entry()
        cache.put("a", fresh)  # re-insert: evicts "b" (LRU)
        assert len(cache) == 2
        assert cache.get("a") is fresh
        assert cache.get("b") is None
        assert cache.get("c") is not None

    def test_put_of_existing_key_refreshes_recency(self):
        cache = VerificationCache(max_entries=2)
        cache.put("a", _entry())
        cache.put("b", _entry())
        cache.put("a", _entry())  # overwrite, no growth
        assert len(cache) == 2
        cache.put("c", _entry())  # LRU is now "b"
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_malformed_bytes_entries_count_against_the_bound(self):
        # Failed deserializations are cached as SignalEntry(None) so
        # malformed spam is rejected once network-wide — but they must
        # occupy real capacity, not grow the cache unboundedly.
        cache = VerificationCache(max_entries=4)
        for i in range(100):
            cache.put(("domain", b"garbage-%d" % i), SignalEntry(None))
        assert len(cache) == 4

    def test_hit_rate_accounting(self):
        cache = VerificationCache(max_entries=2)
        assert cache.hit_rate == 0.0
        cache.put("a", _entry())
        cache.get("a")
        cache.get("missing")
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            VerificationCache(max_entries=0)


class TestDomainKeying:
    @pytest.fixture(scope="class")
    def rig(self):
        rng = random.Random(3)
        pk, vk = rln_keys(seed=b"cache-domains")
        tree = MerkleTree(6)
        pair = MembershipKeyPair.generate(rng)
        index = tree.insert(pair.commitment.element)
        prover = RlnProver(keypair=pair, proving_key=pk)
        return vk, tree, prover, index

    def test_wire_keys_are_domain_namespaced(self, rig):
        vk, tree, _, _ = rig
        cache = VerificationCache(max_entries=8)
        verifiers = [
            RlnVerifier(
                verifying_key=vk,
                root_predicate=lambda root: True,
                domain=domain,
                cache=cache,
            )
            for domain in ("topic-a", "topic-b")
        ]
        raw = b"the-same-wire-bytes"
        keys = {v.wire_cache_key(raw) for v in verifiers}
        assert len(keys) == 2
        for key in keys:
            cache.put(key, SignalEntry(None))
        assert len(cache) == 2

    def test_same_signal_cached_separately_per_domain(self, rig):
        vk, tree, prover, index = rig
        cache = VerificationCache(max_entries=8)

        def verifier(domain):
            return RlnVerifier(
                verifying_key=vk,
                root_predicate=lambda root: True,
                domain=domain,
                cache=cache,
            )

        domain = "topic-a"
        signal = prover.create_signal(
            b"hello", 4, tree.proof(index), domain=domain
        )
        assert verifier(domain).check(signal) is SignalCheck.VALID
        assert len(cache) == 1
        # The same signal checked under another domain is a *miss* (and
        # correctly fails the external-nullifier binding): the memoised
        # outcome never leaks across topics.
        assert (
            verifier("topic-b").check(signal)
            is SignalCheck.BAD_EXTERNAL_NULLIFIER
        )
        assert len(cache) == 2
        # Re-checking under the original domain is a pure hit.
        hits = cache.hits
        assert verifier(domain).check(signal) is SignalCheck.VALID
        assert cache.hits == hits + 1
