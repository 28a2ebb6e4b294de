"""Serial-vs-parallel equivalence: the shard × worker test matrix.

Parallel mode (``parallel_workers``) runs the full stack on the
window-isolated kernel — per-entity RNG streams, barrier-synced chain
replicas, cross-worker port packets. Its correctness claim is that the
partition is *invisible*: every cell of the shards × workers matrix
must fingerprint bit-identically to the mode's serial reference, the
(shards=1, workers=1) cell. That includes the forked cells, where the
chain state peers observe was reassembled from pickled op streams and
the measurements were merged across real OS processes.

The reference is the parallel mode's own (1, 1) cell, *not* the
serial kernel: per-entity RNG streams intentionally change
individual draws, so the two modes are distinct seeded universes.
"""

from __future__ import annotations

import pytest

from repro.scenarios.registry import scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec

PEERS = 24
DURATION = 8.0

#: Every (shards, workers) cell the tentpole claims equivalence for.
MATRIX = [(s, w) for s in (1, 2, 4) for w in (1, 2, 4)]

_reference_cache = {}


def _cell(name, shards, workers):
    return run_scenario(
        scenario(name).scaled(peers=PEERS, duration=DURATION),
        shards=shards,
        parallel_workers=workers,
    )


def _reference(name):
    if name not in _reference_cache:
        _reference_cache[name] = _cell(name, 1, 1)
    return _reference_cache[name]


@pytest.mark.parametrize("shards,workers", MATRIX)
@pytest.mark.parametrize(
    "name", ["rotating-sybil-economics", "delegated-enforcement"]
)
def test_matrix_cell_matches_serial_reference(name, shards, workers):
    reference = _reference(name)
    result = _cell(name, shards, workers)
    assert result.fingerprint() == reference.fingerprint()


def test_matrix_economics_invariance():
    """The money trail — the paper's cost-of-attack claim — survives
    partitioning: slashes, burns, rewards, fees and the per-epoch
    economics series are equal on every cell, not just the digest."""
    reference = _reference("delegated-enforcement")
    assert reference.members_slashed > 0, "attack must actually settle"
    for shards, workers in [(2, 2), (4, 4)]:
        result = _cell("delegated-enforcement", shards, workers)
        assert result.members_slashed == reference.members_slashed
        assert result.stake_burnt == reference.stake_burnt
        assert result.reporter_rewards == reference.reporter_rewards
        assert result.watchtower_rewards == reference.watchtower_rewards
        assert result.delegation_fees == reference.delegation_fees
        assert result.attacker_spend == reference.attacker_spend
        assert result.identity_rotations == reference.identity_rotations
        assert result.series == reference.series


def test_deep_run_equivalence_through_peer_exchange():
    """Equivalence through the Peer-Exchange regime. Short runs never
    PRUNE with PX, so they cannot catch a runtime topology rewire that
    leaks across the partition (a dial used to mutate the remote
    endpoint's adjacency synchronously — invisible to the worker
    owning it, and forked runs drifted after ~15 simulated seconds).
    The dial count is asserted non-zero so this test can never pass
    vacuously by staying out of that regime."""
    from dataclasses import replace

    from repro.scenarios.runner import ScenarioRunner

    spec = scenario("delegated-enforcement").scaled(
        peers=PEERS, duration=30.0
    )
    ref_runner = ScenarioRunner(replace(spec, shards=1, parallel_workers=1))
    reference = ref_runner.run()
    assert ref_runner.net.metrics.counters["gossipsub.px_dials"] > 0, (
        "deep run must actually reach the PX-dial regime"
    )
    for shards, workers in [(2, 2), (4, 4)]:
        result = run_scenario(spec, shards=shards, parallel_workers=workers)
        assert result.fingerprint() == reference.fingerprint()


def test_parallel_mode_is_deterministic_across_repeats():
    first = _cell("rotating-sybil-economics", 2, 2)
    second = _cell("rotating-sybil-economics", 2, 2)
    assert first.fingerprint() == second.fingerprint()


def test_excess_workers_clamp_to_shard_count():
    reference = _reference("rotating-sybil-economics")
    result = _cell("rotating-sybil-economics", 2, 4)
    assert result.fingerprint() == reference.fingerprint()


def test_parallel_spec_accepts_churn_faults_and_baseline():
    """Feature parity: churn, fault injection and baseline comparison
    all construct cleanly in parallel mode now (churn plans are
    precomputed on the shared event grid, faults pin to shard 0,
    baselines run on the coordinator). Only genuinely malformed
    parallel parameters still raise — as the typed spec error."""
    base = dict(
        name="x", description="x", peers=8, parallel_workers=2
    )
    from repro.errors import ScenarioSpecError
    from repro.scenarios.spec import ChurnModel, FaultPlan, WatchtowerSpec

    ScenarioSpec(
        **base,
        churn=ChurnModel(join_interval=1.0, max_joins=2),
    )
    ScenarioSpec(
        **base,
        watchtowers=WatchtowerSpec(count=1),
        faults=(FaultPlan(target="watchtower-0", crash_at=1.0),),
    )
    ScenarioSpec(**base, compare_baseline=True)
    # The typed error carries the offending field for tooling.
    with pytest.raises(ScenarioSpecError) as excinfo:
        ScenarioSpec(name="x", description="x", parallel_workers=-1)
    assert excinfo.value.problems == ("parallel_workers",)


def test_parallel_results_report_barrier_memo_hit_rate():
    """The barrier-synced memo cache makes verification reuse a run
    fact again (committed snapshots evolve identically on every
    layout), so parallel results report the hit rate — and it must be
    equal across cells. Membership-store sharing counters remain
    per-partition artifacts and stay out."""
    reference = _reference("delegated-enforcement")
    result = _cell("delegated-enforcement", 2, 2)
    assert "verification_cache_hit_rate" in result.extras
    assert (
        result.extras["verification_cache_hit_rate"]
        == reference.extras["verification_cache_hit_rate"]
    )
    assert "membership_events" not in result.extras


def test_churn_cell_matches_serial_reference():
    """Churn was the last excluded runtime process: joins and leaves
    now execute from a plan every worker derives identically. The
    scenario must actually churn (joined/left non-zero) and every
    forked cell must agree with the (1, 1) reference bit-for-bit."""
    spec = scenario("high-churn").scaled(peers=PEERS, duration=20.0)
    reference = run_scenario(spec, shards=1, parallel_workers=1)
    assert reference.joined > 0, "plan must produce joins"
    assert reference.left > 0, "plan must produce leaves"
    for shards, workers in [(2, 2), (4, 4)]:
        result = run_scenario(spec, shards=shards, parallel_workers=workers)
        assert result.fingerprint() == reference.fingerprint()
        assert result.joined == reference.joined
        assert result.left == reference.left
        assert result.peers_final == reference.peers_final


def test_fault_cell_matches_serial_reference():
    """Delegated-enforcement crash/recovery under partitioning: the
    fault driver pins the victim service to shard 0 and keys its
    events on the partition-invariant grid, so the recovery accounting
    must be a run fact."""
    spec = scenario("delegated-enforcement-crash").scaled(
        peers=PEERS, duration=30.0
    )
    reference = run_scenario(spec, shards=1, parallel_workers=1)
    assert reference.recovery_time > 0, "crash must actually recover"
    for shards, workers in [(2, 2), (4, 4)]:
        result = run_scenario(spec, shards=shards, parallel_workers=workers)
        assert result.fingerprint() == reference.fingerprint()
        assert result.recovery_time == reference.recovery_time
        assert result.missed_slashes == reference.missed_slashes


def test_million_id_city_tiny_scale_across_workers():
    """The flagship scenario's whole feature set — sharded membership
    registry, pre-registered genesis population, eager nullifier GC,
    streaming metrics — through the windowed path on 1, 2 and 4
    workers. Fingerprints and the registry/GC measurements must be
    bit-identical: subtree materialization merges as an index-set
    union, nullifier GC as per-peer sums."""
    spec = scenario("million-id-city").scaled(peers=48, duration=6.0)
    results = {
        workers: run_scenario(spec, parallel_workers=workers)
        for workers in (1, 2, 4)
    }
    reference = results[1]
    assert reference.extras["membership_subtrees_materialized"] > 0
    assert "nullifier_entries_pruned" in reference.extras
    for workers in (2, 4):
        result = results[workers]
        assert result.fingerprint() == reference.fingerprint()
        assert (
            result.extras["membership_subtrees_materialized"]
            == reference.extras["membership_subtrees_materialized"]
        )
        assert (
            result.extras["nullifier_entries_pruned"]
            == reference.extras["nullifier_entries_pruned"]
        )
