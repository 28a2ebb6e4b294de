"""E1-E10: the paper's claims as one checked table.

Each entry of :data:`CLAIMS` names one claim of the paper (section and
stated value), the ``repro.analysis`` experiment that reproduces it, an
extractor for our value and the bound that value must meet. One loop
evaluates them all and writes one table,
``benchmarks/results/paper_claims.{txt,json}``. Under ``--bench-quick``
the experiments run at smoke size and only the bounds marked
``quick=True`` are asserted; the others show ``n/a``.

Run at full scale (rewrites the committed table)::

    PYTHONPATH=src python -m pytest benchmarks/bench_paper_claims.py -s
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from repro.analysis.chain_experiments import (
    economics_experiment,
    gas_cost_experiment,
    gas_vs_depth_experiment,
    propagation_experiment,
)
from repro.analysis.crypto_experiments import (
    key_material_experiment,
    merkle_storage_experiment,
    proof_generation_experiment,
    proof_verification_experiment,
)
from repro.analysis.reporting import format_value
from repro.analysis.spam_experiments import (
    nullifier_map_experiment,
    routing_overhead_experiment,
    spam_protection_experiment,
)


@dataclass(frozen=True, eq=False)
class Run:
    """One experiment call; ``quick`` kwargs replace ``full`` ones at
    smoke scale. Returns the experiment's rows."""

    fn: Callable
    full: Mapping[str, Any] = field(default_factory=dict)
    quick: Mapping[str, Any] = field(default_factory=dict)

    def __call__(self, quick: bool) -> list:
        return self.fn(**{**self.full, **(self.quick if quick else {})})[1]


class Bound(NamedTuple):
    text: str
    holds: Callable[[Any], bool]


_OPS = {
    "=": operator.eq,
    "<": operator.lt,
    ">": operator.gt,
    "≤": operator.le,
    "≥": operator.ge,
}


def bound(op: str, limit) -> Bound:
    """``ours <op> limit``; a missing value (None) never holds."""
    return Bound(
        f"{op} {format_value(limit)}",
        lambda v: v is not None and _OPS[op](v, limit),
    )


def near(target: float, rel: float) -> Bound:
    return Bound(
        f"{format_value(target)} (rel ± {rel:g})",
        lambda v: v is not None and abs(v - target) <= rel * abs(target),
    )


class Claim(NamedTuple):
    eid: str
    section: str
    paper: str
    run: Run
    ours: Callable[[list], Any]
    bound: Bound
    #: The bound holds at ``--bench-quick`` sizes too.
    quick: bool = True


def col(rows: Sequence, i: int) -> list:
    return [row[i] for row in rows]


def by_key(rows: Sequence, key) -> Sequence:
    return next(row for row in rows if row[0] == key)


def constant(values: Sequence) -> Optional[Any]:
    """The one value every entry shares, or None if they differ."""
    return values[0] if len(set(values)) == 1 else None


def growth(values: Sequence) -> Optional[float]:
    """last / first for a non-decreasing sequence, else None."""
    if list(values) != sorted(values):
        return None
    return values[-1] / values[0]


def unpruned_over_pruned(rows: Sequence, pruned: int, unpruned: int):
    """The never-pruned map's size over the pruned one's at the last
    report; None unless the never-pruned map grew monotonically."""
    if growth(col(rows, unpruned)) is None:
        return None
    return rows[-1][unpruned] / rows[-1][pruned]


def ratio(num: float, den: float) -> Optional[float]:
    """num / den; over a zero den, unbounded if num > 0, else None."""
    if den:
        return num / den
    return float("inf") if num > 0 else None


def in_stakes(loss: int, stake: int) -> Optional[int]:
    """How many whole stakes ``loss`` is; None unless it is exactly that
    (integer arithmetic, so a few wei of rounding drift shows)."""
    return loss // stake if loss % stake == 0 else None


def per_honest_peer(rows: Sequence, system: str) -> float:
    return next(r for r in rows if r[0].startswith(system))[3]


def propagation_speedup(rows: Sequence) -> Optional[float]:
    """On-chain mean latency over gossip's; None unless both delivered."""
    gossip, onchain = rows
    if not (gossip[4] and onchain[4]):
        return None
    return onchain[1] / gossip[1]


E1 = Run(
    proof_generation_experiment,
    {"depths": (10, 16, 20, 26, 32)},
    {"depths": (10, 16)},
)
E2 = Run(
    proof_verification_experiment,
    {"depths": (10, 16, 20, 26, 32), "repetitions": 1000},
    {"repetitions": 200},
)
E3 = Run(key_material_experiment)
E4 = Run(merkle_storage_experiment, {"depths": (10, 16, 20, 24)})
E5 = Run(gas_cost_experiment, {"member_counts": (0, 16, 64, 256)})
E5_DEPTH = Run(gas_vs_depth_experiment, {"depths": (10, 16, 20, 26, 32)})
E6 = Run(
    propagation_experiment,
    {"peer_count": 50, "messages": 20, "block_interval": 13.0},
)
E7 = Run(
    spam_protection_experiment,
    {"peer_count": 40, "attack_epochs": 5},
    {"peer_count": 15, "attack_epochs": 2},
)
E8 = Run(routing_overhead_experiment)
E9 = Run(nullifier_map_experiment, {"epochs": 40, "senders_per_epoch": 30})
E9_GC = Run(
    nullifier_map_experiment,
    {"epochs": 200, "senders_per_epoch": 40, "auto_prune": True},
    {"epochs": 12},
)
E10 = Run(economics_experiment, {"spammer_count": 3, "peer_count": 20})

BASELINES = ("plain relay", "peer scoring + Sybil botnet", "Whisper PoW")

CLAIMS = (
    Claim("E1a", "§IV", "prove ≈ 0.5 s at 2^32 (modeled phone)", E1,
          lambda rows: rows[-1][3], near(0.5, 1e-6), quick=False),
    Claim("E1b", "§IV", "proving cost grows with depth (last/first)", E1,
          lambda rows: growth(col(rows, 3)), bound(">", 1)),
    Claim("E2a", "§IV", "verify ≈ 30 ms at every depth (modeled)", E2,
          lambda rows: constant(col(rows, 2)), bound("=", 0.03)),
    Claim("E2b", "§IV", "verify constant in group size (max − 3·min, s)",
          E2, lambda rows: max(col(rows, 3)) - 3 * min(col(rows, 3)) < 1e-4,
          bound("=", True)),
    Claim("E3a", "§IV", "identity secret key 32 B", E3,
          lambda rows: by_key(rows, "identity secret key")[1],
          bound("=", 32)),
    Claim("E3b", "§IV", "identity public key 32 B", E3,
          lambda rows: by_key(rows, "identity public key")[1],
          bound("=", 32)),
    Claim("E3c", "§IV", "constant-size zkSNARK proof 128 B", E3,
          lambda rows: by_key(rows, "zkSNARK proof")[1], bound("=", 128)),
    Claim("E3d", "§IV", "prover key 3.89 MB (bytes, depth 20)", E3,
          lambda rows: by_key(rows, "prover key (modeled, depth 20)")[1],
          near(3.89 * 1024 * 1024, 0.01)),
    Claim("E4a", "§IV", "naive depth-20 tree 67 MB (bytes)", E4,
          lambda rows: by_key(rows, 20)[1], near(67e6, 0.01)),
    Claim("E4b", "§IV", "optimized tree ~0.1 KB (bytes, depth 20)", E4,
          lambda rows: by_key(rows, 20)[2], bound("≤", 1024)),
    Claim("E4c", "§IV", "naive / optimized storage at depth 20", E4,
          lambda rows: by_key(rows, 20)[3], bound(">", 10**4)),
    Claim("E5a", "§III", "registry registration gas constant in members",
          E5, lambda rows: constant(col(rows[1:], 1)),
          bound("<", 100_000)),
    Claim("E5b", "§III", "on-chain tree registration gas (depth 20)", E5,
          lambda rows: min(col(rows, 3)), bound(">", 1_000_000)),
    Claim("E5c", "§III", "gas cut by an order of magnitude (min ratio)",
          E5, lambda rows: min(col(rows, 5)), bound("≥", 10)),
    Claim("E5d", "§III", "registry gas constant in depth", E5_DEPTH,
          lambda rows: constant(col(rows, 1)), bound("<", 100_000)),
    Claim("E5e", "§III", "on-chain tree gas grows with depth (32 vs 10)",
          E5_DEPTH, lambda rows: growth(col(rows, 2)), bound(">", 1)),
    Claim("E6", "§III", "off-chain faster than mining (latency ratio)", E6,
          propagation_speedup, bound(">", 1)),
    Claim("E7a", "§I", "spammer slashed and removed", E7,
          lambda rows: by_key(rows, "Waku-RLN-Relay")[4].startswith("yes"),
          bound("=", True)),
    Claim("E7b", "§I", "spam per honest peer bounded (RLN)", E7,
          lambda rows: per_honest_peer(rows, "Waku-RLN-Relay"),
          bound("≤", 3)),
    Claim("E7c", "§I", "baselines removing the attacker", E7,
          lambda rows: sum(not r[4].startswith("no") for r in rows[1:]),
          bound("=", 0)),
    Claim("E7d", "§I", "baseline / RLN spam per honest peer (min)", E7,
          lambda rows: ratio(
              min(per_honest_peer(rows, b) for b in BASELINES),
              per_honest_peer(rows, "Waku-RLN-Relay"),
          ),
          bound(">", 10), quick=False),
    Claim("E8a", "§I", "PoW mining / RLN proving per msg (phone)", E8,
          lambda rows: by_key(rows, "Whisper PoW 18 bits (phone)")[1]
          / by_key(rows, "RLN (paper model, phone)")[1],
          bound(">", 1)),
    Claim("E8b", "§I", "PoW unusable on IoT (s per msg)", E8,
          lambda rows: by_key(rows, "Whisper PoW 18 bits (iot)")[1],
          bound(">", 10)),
    Claim("E9a", "§III", "map holds Thr+1 epochs (30 senders, thr 2)", E9,
          lambda rows: constant(col(rows[1:], 1)), bound("=", 3 * 30)),
    Claim("E9b", "§III", "never-pruned / pruned entries, 40 epochs", E9,
          lambda rows: unpruned_over_pruned(rows, 1, 3),
          bound(">", 10)),
    Claim("E9c", "§III", "epoch-grid GC holds Thr+1 epochs (40 senders)",
          E9_GC, lambda rows: constant(col(rows[1:], 1)),
          bound("=", 3 * 40)),
    Claim("E9d", "§III", "never-pruned / GC bytes, 200 epochs", E9_GC,
          lambda rows: unpruned_over_pruned(rows, 2, 4),
          bound(">", 10), quick=False),
    Claim("E10a", "§I", "spammers lose their stake (stakes, 3 spammers)",
          E10, lambda rows: in_stakes(
              by_key(rows, "total attacker loss")[1],
              by_key(rows, "stake per member")[1],
          ),
          bound("=", 3)),
    Claim("E10b", "§I", "burnt + rewards − attacker loss (wei)", E10,
          lambda rows: by_key(rows, "total burnt")[1]
          + by_key(rows, "total reporter rewards")[1]
          - by_key(rows, "total attacker loss")[1],
          bound("=", 0)),
    Claim("E10c", "§I", "reporters rewarded", E10,
          lambda rows: by_key(rows, "rewarded reporters")[1],
          bound("≥", 1)),
)

HEADERS = ("E-id", "section", "paper", "ours", "bound", "pass")


def test_paper_claims(record_table, bench_scale):
    quick = bench_scale.quick
    tables, rows, failed = {}, [], []
    for claim in CLAIMS:
        if claim.run not in tables:
            tables[claim.run] = claim.run(quick)
        ours = claim.ours(tables[claim.run])
        checked = claim.quick or not quick
        passed = claim.bound.holds(ours)
        rows.append(
            (
                claim.eid,
                claim.section,
                claim.paper,
                ours,
                claim.bound.text,
                ("yes" if passed else "no") if checked else "n/a",
            )
        )
        if checked and not passed:
            failed.append(f"{claim.eid} ({claim.paper}): {ours!r}")
    record_table(
        "paper_claims",
        "E1-E10: the paper's claims, reproduced",
        HEADERS,
        rows,
        note=(
            "ours = this implementation; modeled timings use the paper's\n"
            "calibrated iPhone 8 PerformanceModel. None = the series was not\n"
            "constant / monotone as the claim requires, or a value was missing."
        ),
        meta={
            "scale": "quick" if quick else "full",
            "claims": len(rows),
            "failed": len(failed),
        },
    )
    assert not failed, "paper claims not reproduced: " + "; ".join(failed)
