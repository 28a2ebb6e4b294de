"""Run every experiment and print its table.

Usage::

    python -m repro.analysis                        # all experiments
    python -m repro.analysis e1 e5 e7               # a subset
    python -m repro.analysis list-scenarios         # scenario registry
    python -m repro.analysis list-strategies        # adversary strategies
    python -m repro.analysis run-scenario burst-spammer --peers 200
    python -m repro.analysis run-scenario rotating-sybil-economics

The output of a full run is what EXPERIMENTS.md records.
"""

from __future__ import annotations

import json
import sys

from .ablations import (
    epoch_length_ablation,
    flood_publish_ablation,
    mesh_degree_ablation,
    root_window_ablation,
)
from .chain_experiments import (
    economics_experiment,
    gas_cost_experiment,
    gas_vs_depth_experiment,
    propagation_experiment,
)
from .crypto_experiments import (
    key_material_experiment,
    merkle_storage_experiment,
    paper_reference_row,
    proof_generation_experiment,
    proof_verification_experiment,
)
from .reporting import format_experiment
from .scaling import network_scaling_experiment
from .spam_experiments import (
    nullifier_map_experiment,
    routing_overhead_experiment,
    spam_protection_experiment,
)

EXPERIMENTS = {
    "e1": (
        "E1: proof generation vs group size (paper: ~0.5 s at 2^32)",
        proof_generation_experiment,
    ),
    "e2": (
        "E2: proof verification, constant in group size (paper: ~30 ms)",
        proof_verification_experiment,
    ),
    "e3": ("E3: key material sizes (paper: 32 B keys)", key_material_experiment),
    "e4": (
        "E4: membership tree storage (paper: 67 MB vs 0.128 KB at depth 20)",
        merkle_storage_experiment,
    ),
    "e5": (
        "E5: registration/deletion gas, registry vs on-chain tree",
        gas_cost_experiment,
    ),
    "e5b": (
        "E5b: on-chain tree gas grows with depth; registry does not",
        gas_vs_depth_experiment,
    ),
    "e6": (
        "E6: propagation latency, off-chain gossip vs on-chain mining",
        propagation_experiment,
    ),
    "e7": (
        "E7: spam reach under attack, vs PoW / peer-scoring / plain",
        spam_protection_experiment,
    ),
    "e8": (
        "E8: per-message computational overhead by device class",
        routing_overhead_experiment,
    ),
    "e9": (
        "E9: nullifier-map memory bounded by Thr window",
        nullifier_map_experiment,
    ),
    "e10": ("E10: slashing economics", economics_experiment),
    "ref": ("Paper reference values (Section IV)", paper_reference_row),
    "a1": ("Ablation: epoch length T", epoch_length_ablation),
    "a2": ("Ablation: root window vs staleness", root_window_ablation),
    "a3": ("Ablation: flood-publish vs mesh-only", flood_publish_ablation),
    "a4": ("Ablation: mesh degree D", mesh_degree_ablation),
    "scale": ("Scaling: propagation vs network size", network_scaling_experiment),
}


def _explain_parallel(spec, workers) -> int:
    """Dry-run: print the shard/worker plan a parallel run would use,
    without building or running anything. Everything shown is derived
    from the spec alone — the same pins, block plan, contiguous worker
    groups and barrier windows the runner uses."""
    from ..scenarios.parallel import (
        barrier_times,
        contiguous_groups,
        shard_pins,
    )
    from ..sim.latency import DEFAULT_LATENCY
    from ..sim.parallel_stack import ShardPlan

    workers = min(workers, spec.shards)
    roster = [f"peer-{i}" for i in range(spec.peers)]
    pins = shard_pins(spec)
    plan = ShardPlan(spec.shards, keys=roster, pins=pins)
    window = DEFAULT_LATENCY.min_latency()
    barriers = sum(1 for _ in barrier_times(spec.duration, window))
    tail = spec.adversaries.total_count
    services = len(spec.watchtowers.service_ids()) if spec.watchtowers else 0
    print(f"scenario          {spec.name}")
    print(f"peers             {spec.peers}")
    print(f"shards            {spec.shards}")
    print(f"workers           {workers}" + (" (in-process)" if workers <= 1 else " (forked)"))
    print(f"barrier window    {window}s  ({barriers} barriers over {spec.duration}s)")
    if spec.pre_registered:
        print(f"pre-registered    {spec.pre_registered} genesis identities")
    by_shard = {s: 0 for s in range(spec.shards)}
    for node_id in roster:
        by_shard[plan.shard_of(node_id)] += 1
    for index, group in enumerate(contiguous_groups(spec.shards, workers)):
        peers_owned = sum(by_shard[s] for s in group)
        shards_text = (
            f"shard {group.start}"
            if len(group) == 1
            else f"shards {group.start}-{group.stop - 1}"
        )
        extras = []
        if 0 in group:
            if tail:
                extras.append(f"{tail} adversaries (pinned)")
            if services:
                extras.append(f"{services} watchtowers (pinned)")
        suffix = f"  + {', '.join(extras)}" if extras else ""
        print(
            f"  worker {index}        {shards_text}: "
            f"{peers_owned} peers{suffix}"
        )
    return 0


def _run_scenario_command(argv) -> int:
    """``run-scenario <name> [--peers N] [--duration S] [--seed K]
    [--shards N] [--workers N] [--json] [--explain-parallel]``

    ``--workers`` opts into the window-isolated parallel mode
    (``ScenarioSpec.parallel_workers``; forked workers when > 1 and
    shards allow). ``--explain-parallel`` prints the shard/worker plan
    and exits without running."""
    from ..errors import ScenarioError, ScenarioSpecError
    from ..scenarios.registry import scenario, scenario_names
    from ..scenarios.runner import run_scenario

    if not argv:
        print(f"usage: run-scenario <name>; choose from {scenario_names()}")
        return 1
    name, flags = argv[0], argv[1:]
    overrides = {
        "peers": None, "duration": None, "seed": None, "shards": None,
        "workers": None,
    }
    as_json = False
    explain = False
    i = 0
    while i < len(flags):
        flag = flags[i]
        if flag == "--json":
            as_json = True
            i += 1
            continue
        if flag == "--explain-parallel":
            explain = True
            i += 1
            continue
        key = flag.lstrip("-")
        if key not in overrides or i + 1 >= len(flags):
            print(f"unknown or valueless flag {flag!r}")
            return 1
        caster = float if key == "duration" else int
        try:
            overrides[key] = caster(flags[i + 1])
        except ValueError:
            print(f"flag {flag!r} expects a number, got {flags[i + 1]!r}")
            return 1
        i += 2
    workers = overrides.pop("workers")
    if explain:
        spec = scenario(name).scaled(
            peers=overrides["peers"],
            duration=overrides["duration"],
            seed=overrides["seed"],
            shards=overrides["shards"],
        )
        return _explain_parallel(spec, workers or spec.parallel_workers or 1)
    try:
        result = run_scenario(
            scenario(name), parallel_workers=workers, **overrides
        )
    except ScenarioSpecError as exc:
        # The typed rejection aggregates every offending feature.
        print(str(exc))
        for problem in exc.problems:
            print(f"  - {problem}")
        return 1
    except ScenarioError as exc:
        print(str(exc))
        return 1
    print(json.dumps(result.to_dict()) if as_json else result.format())
    return 0


def _list_scenarios() -> int:
    from ..scenarios.registry import all_scenarios

    for spec in all_scenarios():
        print(f"{spec.name}")
        print(f"    peers={spec.peers} duration={spec.duration}s")
        print(f"    {spec.description}")
    return 0


def _list_strategies() -> int:
    """Adversary strategies usable in an ``AdversaryGroup``."""
    from ..adversaries.strategies import strategy_summaries

    for name, doc in strategy_summaries():
        print(f"{name}")
        print(f"    {doc}")
    return 0


def main(argv) -> int:
    if argv and argv[0] == "run-scenario":
        return _run_scenario_command(argv[1:])
    if argv and argv[0] == "list-scenarios":
        return _list_scenarios()
    if argv and argv[0] == "list-strategies":
        return _list_strategies()
    selected = [a.lower() for a in argv] or list(EXPERIMENTS)
    unknown = [s for s in selected if s not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choose from {list(EXPERIMENTS)}")
        return 1
    for key in selected:
        title, runner = EXPERIMENTS[key]
        headers, rows = runner()
        print(format_experiment(title, headers, rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
