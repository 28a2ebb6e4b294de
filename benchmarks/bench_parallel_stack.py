"""Full-stack parallel sharding: equivalence matrix, wall-clock, RSS.

Three measurements around ``parallel_workers`` mode (window-isolated
workers with barrier-synced chain replicas):

* the **equivalence matrix** — the flagship ``multi-topic-5k`` profile
  executed on every interesting (shards, workers) cell, including the
  forked cells where chain state is reassembled from pickled op
  streams. Every cell must fingerprint bit-identically to the mode's
  serial (1, 1) reference. This is the benchmark twin of
  ``tests/scenarios/test_parallel_matrix.py`` and runs in tier-1's
  ``--bench-quick`` smoke, so the parallel path cannot rot;
* the **speedup** table — serial vs 4 forked workers at scale. The
  acceptance target (>=2x at 4 workers) only means anything with
  cores to overlap on, so the assertion is gated on ``host_cpus``;
  single-core hosts record the honest fork+pickle overhead instead;
* the **per-worker memory** table — build-per-worker (each forked
  worker constructs only its owned shards) against the fork-after-build
  baseline (one process building and running the whole network, which
  is what every worker used to fork from). Both sides are measured as
  peak RSS in fresh subprocesses so neither inherits the test runner's
  footprint; the acceptance check is worst worker <= 0.5x baseline at
  full scale.

Run with ``pytest benchmarks/bench_parallel_stack.py -s``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.scenarios.registry import scenario
from repro.scenarios.runner import run_scenario

#: Matrix cells: the serial reference, a sharded-but-serial cell, the
#: smallest truly forked cell, and the widest one.
MATRIX = ((1, 1), (2, 1), (2, 2), (4, 4))


def _cell(spec, shards, workers):
    start = time.perf_counter()
    result = run_scenario(spec, shards=shards, parallel_workers=workers)
    return result, time.perf_counter() - start


def test_parallel_stack_equivalence_matrix(record_table, bench_scale):
    """multi-topic-5k across the shard/worker matrix: one fingerprint."""
    spec = scenario("multi-topic-5k").scaled(
        peers=bench_scale.n(1000, 24),
        duration=bench_scale.n(20.0, 8.0),
    )

    rows = []
    reference = None
    for shards, workers in MATRIX:
        result, elapsed = _cell(spec, shards, workers)
        if reference is None:
            reference = result
        # The tentpole property, at every scale: the partition is
        # invisible — forked replicas included.
        assert result.fingerprint() == reference.fingerprint(), (
            f"cell ({shards}, {workers}) diverged from serial reference"
        )
        assert result.events_processed == reference.events_processed
        rows.append(
            (
                shards,
                workers,
                "forked" if workers > 1 else "in-process",
                result.fingerprint(),
                result.events_processed,
                f"{elapsed:.2f}",
            )
        )

    record_table(
        "bench_parallel_stack_matrix",
        "multi-topic-5k on the parallel full stack (shard x worker matrix)",
        ("shards", "workers", "mode", "fingerprint", "events", "wall s"),
        rows,
        note=(
            "Every cell runs the whole protocol stack — RLN peers, "
            "chain, adversaries — on the window-isolated kernel; "
            "workers > 1 forks OS processes that exchange barrier "
            "packets and chain-op streams. Identical fingerprints mean "
            "the partition is pure execution machinery."
        ),
        meta={
            "peers": spec.peers,
            "duration": spec.duration,
            "host_cpus": os.cpu_count(),
            "cells": len(rows),
            "fingerprint": reference.fingerprint(),
            "events_processed": reference.events_processed,
        },
    )


def test_parallel_stack_speedup(record_table, bench_scale):
    """Serial vs 4 forked workers on the flagship profile."""
    spec = scenario("multi-topic-5k").scaled(
        peers=bench_scale.n(5000, 24),
        duration=bench_scale.n(60.0, 8.0),
    )

    serial, serial_s = _cell(spec, 4, 1)
    forked, forked_s = _cell(spec, 4, 4)
    assert forked.fingerprint() == serial.fingerprint()

    speedup = serial_s / forked_s if forked_s else 0.0
    cores = os.cpu_count() or 1
    if not bench_scale.quick and cores >= 4:
        # The PR's acceptance target. On fewer cores the forked mode
        # cannot overlap shard execution and the table records the
        # fork+pickle overhead honestly instead of asserting fiction.
        assert speedup >= 2.0, (
            f"4 forked workers only {speedup:.2f}x over serial "
            f"({forked_s:.1f}s vs {serial_s:.1f}s on {cores} cpus)"
        )

    record_table(
        "bench_parallel_stack_speedup",
        "multi-topic-5k: serial vs forked parallel workers (4 shards)",
        ("mode", "workers", "fingerprint", "wall s", "speedup"),
        [
            ("in-process", 1, serial.fingerprint(), f"{serial_s:.2f}", "1.00"),
            (
                "forked",
                4,
                forked.fingerprint(),
                f"{forked_s:.2f}",
                f"{speedup:.2f}",
            ),
        ],
        note=(
            "Same barrier protocol in both modes; the forked row adds "
            "fork, pipe and pickle costs and buys true multi-core "
            "overlap. The >=2x acceptance check applies at full scale "
            "on hosts with >=4 cpus (see host_cpus)."
        ),
        meta={
            "peers": spec.peers,
            "duration": spec.duration,
            "host_cpus": cores,
            "wall_clock_serial_s": round(serial_s, 3),
            "wall_clock_forked_s": round(forked_s, 3),
            # Meaningful only at full scale on a multi-core host.
            "speedup_4_workers": (
                round(speedup, 2)
                if not bench_scale.quick and cores >= 4
                else None
            ),
        },
    )


# -- per-worker memory --------------------------------------------------------

#: Peak-RSS probe for the fresh-process scripts. ``ru_maxrss`` is
#: poisoned here: Linux folds the pre-exec mm's high-water mark into
#: the rusage counter at execve, so a subprocess spawned from a large
#: test runner reports the *runner's* peak. ``VmHWM`` is per-mm and
#: resets on exec, which is exactly the fresh-image peak we want.
_PEAK_KIB = """\
def peak_kib():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""

#: Footprint floor: a fresh interpreter with the package imported.
_INTERPRETER_RSS = _PEAK_KIB + """\
import repro.scenarios.runner  # noqa: F401 - import cost is the point
print(peak_kib())
"""

#: Whole-network build: one process materialises every shard and
#: stops — the address space fork-after-build handed each worker at
#: fork time, before any execution.
_FULL_BUILD_RSS = _PEAK_KIB + """\
import sys
from repro.scenarios.registry import scenario
from repro.scenarios.runner import ScenarioRunner
spec = scenario(sys.argv[1]).scaled(
    peers=int(sys.argv[2]), duration=float(sys.argv[3])
)
ScenarioRunner(spec)  # serial ctor materialises every shard
print(peak_kib())
"""

#: Fork-after-build baseline: the whole-network single process through
#: build *and* run — the process the old mode forked, and the peak its
#: address space reached. Per-worker RSS under build-per-worker is
#: compared against this: the point of the refactor is that no process
#: ever holds the whole network again.
_FULL_RUN_RSS = _PEAK_KIB + """\
import sys
from repro.scenarios.registry import scenario
from repro.scenarios.runner import run_scenario
spec = scenario(sys.argv[1]).scaled(
    peers=int(sys.argv[2]), duration=float(sys.argv[3])
)
run_scenario(spec, shards=int(sys.argv[4]), parallel_workers=1)
print(peak_kib())
"""

#: Build-per-worker: a forked run whose children each construct only
#: their owned shards; ``LAST_RUN_WORKER_RSS`` carries each child's
#: ``ru_maxrss``. Children fork before the coordinator materialises its
#: ghost-only view, so they inherit a lean interpreter, not a build.
_WORKER_RSS = """\
import json, sys
from repro.scenarios import parallel
from repro.scenarios.registry import scenario
from repro.scenarios.runner import run_scenario
spec = scenario(sys.argv[1]).scaled(
    peers=int(sys.argv[2]), duration=float(sys.argv[3])
)
run_scenario(
    spec, shards=int(sys.argv[4]), parallel_workers=int(sys.argv[5])
)
print(json.dumps(parallel.LAST_RUN_WORKER_RSS))
"""


def _fresh_process(script, *args):
    """Run ``script`` in a clean interpreter; parse its last stdout line."""
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1]) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _mib(ru_maxrss_kib):
    return round(ru_maxrss_kib / 1024.0, 1)


def test_parallel_stack_worker_memory(record_table, bench_scale):
    """city-scale-50k: build-per-worker vs the fork-after-build floor."""
    name = "city-scale-50k"
    peers = bench_scale.n(10000, 24)
    duration = bench_scale.n(3.0, 4.0)
    shards = workers = 4

    interpreter = _fresh_process(_INTERPRETER_RSS)
    build_only = _fresh_process(_FULL_BUILD_RSS, name, peers, duration)
    baseline = _fresh_process(
        _FULL_RUN_RSS, name, peers, duration, shards
    )
    per_worker = _fresh_process(
        _WORKER_RSS, name, peers, duration, shards, workers
    )
    assert len(per_worker) == workers
    worst = max(per_worker)
    ratio = worst / baseline
    if not bench_scale.quick:
        # The PR's acceptance target: no worker ever holds the whole
        # network, so its peak stays under half the single-process one.
        assert worst <= 0.5 * baseline, (
            f"worst worker {_mib(worst)} MiB vs fork-after-build "
            f"baseline {_mib(baseline)} MiB ({ratio:.2f}x)"
        )

    rows = [("interpreter floor", "-", _mib(interpreter), "-")]
    rows.append(
        ("whole-network build only", "-", _mib(build_only), "-")
    )
    rows.append(
        ("fork-after-build (build + run)", "-", _mib(baseline), "1.00")
    )
    for index, rss in enumerate(per_worker):
        rows.append(
            (
                "build-per-worker",
                f"worker {index}",
                _mib(rss),
                f"{rss / baseline:.2f}",
            )
        )
    record_table(
        "bench_parallel_stack_memory",
        f"Per-worker peak RSS: {name} at {peers} peers "
        f"({shards} shards, {workers} forked workers)",
        ("mode", "process", "peak RSS MiB", "vs baseline"),
        rows,
        note=(
            "Every row is the peak RSS (VmHWM) of a fresh process, so "
            "nothing inherits the test runner's footprint (ru_maxrss "
            "would: Linux folds the pre-exec image's peak into it at "
            "execve). The baseline row is the whole-network single "
            "process through build and run — the process fork-after-"
            "build forked, and the peak every worker's address space "
            "tracked through COW. The build-per-worker rows fork "
            "first and construct only their owned shards (shard 0's "
            "owner also carries the pinned adversaries and "
            "watchtowers); their residual floor is the interpreter "
            "plus per-worker global state (chain replica, committed "
            "verification memo, ghost roster), which no partition "
            "removes."
        ),
        meta={
            "peers": peers,
            "duration": duration,
            "shards": shards,
            "workers": workers,
            "host_cpus": os.cpu_count(),
            "interpreter_rss_kib": interpreter,
            "full_build_rss_kib": build_only,
            "fork_after_build_rss_kib": baseline,
            # Max-merged across workers; the per-worker values are rows.
            "worker_rss_max_kib": worst,
            "worker_rss_min_kib": min(per_worker),
            "worker_rss_sum_kib": sum(per_worker),
            "worst_worker_over_baseline": round(ratio, 3),
        },
    )


def test_no_builtin_scenario_rejected_at_two_workers():
    """Feature-parity tripwire, in tier-1 via ``--bench-quick``: every
    built-in scenario must construct for parallel mode at workers=2.
    Constructing is the assertion — an incompatible feature raises the
    typed ``ScenarioSpecError`` straight out of ``scaled``."""
    from repro.scenarios.registry import all_scenarios

    for spec in all_scenarios():
        spec.scaled(parallel_workers=2)
