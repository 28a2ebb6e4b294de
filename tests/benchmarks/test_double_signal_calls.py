"""Tier-1 guard on the work of one double-signal detection.

In the paper every routing peer that sees two shares under one internal
nullifier recovers the spammer's secret itself, so a network of ~1000
routers runs ``detect_double_signal`` ~1000 times on the same pair of
points. Recovery is memoised per process: the first detection pays the
modular inversion, every repeat is a cache probe. The profile events
below count that exactly, where a wall-clock difference drowns in host
noise.
"""

from __future__ import annotations

import random
import sys

from repro.crypto.keys import MembershipKeyPair
from repro.crypto.merkle import MerkleTree
from repro.rln.prover import RlnProver, rln_keys
from repro.rln.slashing import detect_double_signal

#: Measured 0.001 ``pow`` calls and 13.0 Python calls per detection over
#: 1000 repeats (one inversion in all). Recovering through the
#: ``Fr``-object Lagrange on every repeat measured 2.0 and 73.
BUDGET_POW_PER_DETECTION = 0.01
BUDGET_CALLS_PER_DETECTION = 25


def double_signal_profile(repeats=1000, seed=28):
    """``(pow c-calls, Python calls)`` per ``detect_double_signal`` on
    one conflicting pair, repeated as ``repeats`` routers would."""
    rng = random.Random(seed)
    pk, _vk = rln_keys(seed=b"double-signal-calls")
    pair = MembershipKeyPair.generate(rng)
    tree = MerkleTree(4)
    proof = tree.proof(tree.insert(pair.commitment.element))
    prover = RlnProver(keypair=pair, proving_key=pk)
    a = prover.create_signal(b"first", 7, proof, rng=rng)
    b = prover.create_signal(b"second", 7, proof, rng=rng)
    assert a.share.x != b.share.x
    pows = calls = 0

    def count(_frame, event, arg):
        nonlocal pows, calls
        if event == "call":
            calls += 1
        elif event == "c_call" and arg is pow:
            pows += 1

    sys.setprofile(count)
    try:
        for _ in range(repeats):
            evidence = detect_double_signal(a, b)
    finally:
        sys.setprofile(None)
    assert evidence.recovered_secret == pair.secret
    return pows / repeats, calls / repeats


def test_double_signal_detection_recovers_once():
    pows, calls = double_signal_profile()
    assert pows <= BUDGET_POW_PER_DETECTION
    assert calls <= BUDGET_CALLS_PER_DETECTION
