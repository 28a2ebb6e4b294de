"""Reference benchmark: four workloads, end-to-end metrics, a per-layer ledger.

Run everything and print the report (from the repo root)::

    python3 benchmarks/reference/bench_reference.py [--seed N] [--reps N]
        [--quick] [--repeat-check]

or one workload the way the benchmark driver does (``BENCHMARK.json``)::

    python3 benchmarks/reference/bench_reference.py --workload NAME
        --seed N --seconds S --trace 0|1

Every run is a fresh ``PYTHONHASHSEED=0`` interpreter executing
``ref_child.py``; this file only orchestrates, checks and reports, and
never imports ``repro``. README.md defines the workloads, the metrics
and how they are expected to interact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ref_workloads  # noqa: E402

REPO_ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
OUT_DIR = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "ref_child.py")

#: End-to-end metrics, report order (``failed_share`` is reported next
#: to them: in the driver's output it is ``failed`` / ``attempted``).
END_TO_END = ("setup_s", "wall_s", "cpu_s", "events_per_s", "peak_rss_mb")

#: Tracing may slow the traced run by this factor before the workload's
#: per-layer shares are flagged as distorted.
MAX_TRACE_OVERHEAD = 1.25

#: One invocation must end within the driver's 180 s.
INVOCATION_DEADLINE_S = 170.0

#: Fewest timed repetitions behind a reported median.
MIN_REPS = 3

clock = time.perf_counter


def unit_of(metric: str) -> str:
    if metric == "events_per_s":
        return "1/s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ns"):
        return "ns"
    if metric.endswith(("_s", "_s_max", "_s_sum")):
        return "s"
    if metric.endswith("_ratio") or metric == "barrier.speedup":
        return "ratio"
    if ".bytes_" in metric:
        return "bytes"
    return "count"


class BenchError(RuntimeError):
    """A run that produced no result (crash, timeout, bad output)."""


# -- one run -------------------------------------------------------------------


def spawn(workload: str, seed: int, quick: bool, trace: bool,
          deadline: Optional[float] = None) -> dict:
    """Run ``ref_child.py`` once in a fresh interpreter; its record."""
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run_", dir=os.path.join(OUT_DIR, "tmp"))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # The program's own temporary files (the watchtower's SQLite
    # store) must land inside the checkout too.
    env["TMPDIR"] = scratch
    timeout = None
    if deadline is not None:
        timeout = max(1.0, deadline - clock())
    command = [
        sys.executable, CHILD,
        "--workload", workload,
        "--seed", str(seed),
        "--quick", str(int(quick)),
        "--trace", str(int(trace)),
        "--dump-dir", scratch,
    ]
    try:
        env["REF_BENCH_SPAWNED"] = repr(clock())
        proc = subprocess.run(
            command, env=env, cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: run exceeded its time limit")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(
            f"{workload}: run exited with {proc.returncode}\n"
            + proc.stderr[-2000:]
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload}: run printed no result")


# -- checks --------------------------------------------------------------------


class Checks:
    """Correctness checks of one invocation; ``failed_share`` is
    ``failed / attempted``."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, str, bool, str]] = []

    def add(self, workload: str, name: str, passed: bool, detail: str = "") -> None:
        self.rows.append((workload, name, bool(passed), detail))

    def add_run(self, workload: str, record: dict, quick: bool) -> None:
        self.add(workload, "run returned", True)
        for name, passed, detail in ref_workloads.evaluate(
            workload, record, quick
        ):
            self.add(workload, name, passed, detail)

    def add_same_fingerprint(self, workload: str, name: str,
                             records: List[dict]) -> None:
        prints = sorted({r["fingerprint"] for r in records})
        self.add(workload, name, len(prints) == 1, " ".join(prints))

    def add_pair_fingerprint(self, untraced: Dict[str, List[dict]]) -> None:
        """The forked run must fingerprint like the in-process one."""
        windowed, forked = (
            untraced[name] for name in ref_workloads.BARRIER_PAIR
        )
        if windowed and forked:
            self.add_same_fingerprint(
                "multi-topic-forked",
                "fingerprint equals multi-topic-windowed",
                [windowed[0], forked[0]],
            )

    def of(self, workload: str) -> List[Tuple[str, str, bool, str]]:
        return [row for row in self.rows if row[0] == workload]

    @property
    def attempted(self) -> int:
        return len(self.rows)

    @property
    def failed(self) -> int:
        return sum(1 for row in self.rows if not row[2])


# -- measuring -----------------------------------------------------------------


def timed_runs(workload: str, seed: int, quick: bool, checks: Checks,
               reps: Optional[int] = None, seconds: float = 0.0,
               deadline: Optional[float] = None) -> List[dict]:
    """Untraced repetitions: exactly ``reps``, or — the driver's form —
    at least :data:`MIN_REPS` and until ``seconds`` have been measured."""
    records: List[dict] = []
    begin = clock()
    while True:
        if reps is not None:
            if len(records) >= reps:
                break
        elif len(records) >= MIN_REPS and clock() - begin >= seconds:
            break
        try:
            record = spawn(workload, seed, quick, False, deadline)
        except BenchError as error:
            checks.add(workload, "run returned", False, str(error))
            break
        checks.add_run(workload, record, quick)
        records.append(record)
    if records:
        checks.add_same_fingerprint(
            workload, "fingerprint equal across repetitions", records
        )
    return records


def medians(records: List[dict]) -> Dict[str, Dict[str, float]]:
    out = {}
    for metric in END_TO_END:
        values = [r["end_to_end"][metric] for r in records]
        out[metric] = {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
        }
    return out


def traced_run(workload: str, seed: int, quick: bool, checks: Checks,
               untraced: Dict[str, List[dict]],
               deadline: Optional[float] = None) -> Optional[dict]:
    """The extra traced run of ``workload``; returns its trace summary
    (also written to ``out/``) with the cross-run fields filled in.

    ``untraced`` maps workload -> its untraced records: the traced
    wall is compared with their median (tracing overhead), and the
    barrier pair's ``speedup`` / ``cpu_ratio`` come from the two
    workloads' end-to-end rows.
    """
    try:
        record = spawn(workload, seed, quick, True, deadline)
    except BenchError as error:
        checks.add(workload, "traced run returned", False, str(error))
        return None
    checks.add_run(workload, record, quick)
    checks.add_same_fingerprint(
        workload, "traced fingerprint equals untraced",
        [record] + untraced[workload][:1],
    )
    trace = record["trace"]
    metrics = trace["metrics"]
    untraced_wall = statistics.median(
        r["end_to_end"]["wall_s"] for r in untraced[workload]
    )
    overhead = metrics["trace.wall_s"] / untraced_wall
    metrics["trace.overhead_ratio"] = overhead
    if workload in ref_workloads.BARRIER_PAIR:
        windowed, forked = (
            medians(untraced[name]) for name in ref_workloads.BARRIER_PAIR
        )
        metrics["barrier.speedup"] = (
            windowed["wall_s"]["median"] / forked["wall_s"]["median"]
        )
        metrics["barrier.cpu_ratio"] = (
            forked["cpu_s"]["median"] / windowed["cpu_s"]["median"]
        )
    else:
        barrier = {k: v for k, v in metrics.items() if k.startswith("barrier.")}
        checks.add(
            workload, "barrier.* all 0 on the serial kernel",
            not any(barrier.values()), "",
        )
    identity = trace["identity_s"]
    wall = metrics["trace.wall_s"]
    checks.add(
        workload, "layer self seconds + other_s = traced wall_s (2 %)",
        abs(identity - wall) <= 0.02 * wall,
        f"sum={identity:.4f} wall={wall:.4f}",
    )
    summary = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "fingerprint": record["fingerprint"],
        "metrics": metrics,
        "main_self_s": trace["main_self_s"],
        "identity_s": identity,
        "untraced_wall_s": untraced_wall,
        "overhead_flag": overhead > MAX_TRACE_OVERHEAD,
        "workers": trace["workers"],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = ".quick.json" if quick else ".json"
    with open(os.path.join(OUT_DIR, f"trace_{workload}{suffix}"), "w") as out:
        json.dump(summary, out, indent=2, sort_keys=True)
        out.write("\n")
    return summary


# -- reporting -----------------------------------------------------------------


def print_host_facts(records: List[dict], load: float) -> None:
    """Host facts to read the timings by; ``load`` is the 1-min load
    average sampled before the first run."""
    cpus = os.cpu_count() or 1
    facts = {
        "host_cpus": cpus,
        "python": platform.python_version(),
        "hash_backend": sorted({r["hash_backend"] for r in records}),
        "load_1min_at_start": load,
        "load_flag": load > cpus / 2,
    }
    print("host: " + json.dumps(facts))
    if facts["load_flag"]:
        print("** 1-min load above nproc/2 at start: timings are suspect **")


def stored_fingerprint(workload: str, seed: int, quick: bool) -> Optional[str]:
    if quick:
        return None
    with open(os.path.join(HERE, "fingerprints.json")) as handle:
        stored = json.load(handle)
    return stored.get(str(seed), {}).get(workload)


def print_end_to_end(rows: Dict[str, Dict[str, float]]) -> None:
    print(f"{'end-to-end metric':<28}{'unit':<7}{'median':>14}"
          f"{'min':>14}{'max':>14}{'n':>4}")
    for metric, row in rows.items():
        print(f"{metric:<28}{unit_of(metric):<7}{row['median']:>14.4f}"
              f"{row['min']:>14.4f}{row['max']:>14.4f}{row['n']:>4}")


def print_workload(workload: str, records: List[dict],
                   summary: Optional[dict], checks: Checks, seed: int,
                   quick: bool) -> None:
    print(f"\n== {workload} (seed {seed}{', quick' if quick else ''}) ==")
    if records:
        fingerprint = records[0]["fingerprint"]
        stored = stored_fingerprint(workload, seed, quick)
        changed = "n/a (none stored for this seed/size)"
        if stored is not None:
            changed = str(fingerprint != stored).lower()
        print(f"fingerprint {fingerprint}  fingerprint_changed: {changed}")
        print_end_to_end(medians(records))
    rows = checks.of(workload)
    failed = [row for row in rows if not row[2]]
    share = len(failed) / len(rows) if rows else 0.0
    print(f"{'failed_share':<28}{'share':<7}{share:>14.4f}"
          f"   ({len(failed)} of {len(rows)} checks failed)")
    for _workload, name, _passed, detail in failed:
        print(f"  FAILED {name}: {detail}")
    if summary is None:
        return
    metrics = summary["metrics"]
    serial = workload not in ref_workloads.BARRIER_PAIR
    print(f"{'per-layer metric (traced run)':<36}{'unit':<7}{'value':>16}")
    for metric, value in metrics.items():
        if serial and metric.startswith("barrier."):
            continue
        unit = unit_of(metric)
        digits = 0 if unit in ("count", "bytes") else 4
        print(f"{metric:<36}{unit:<7}{value:>16.{digits}f}")
    layers = sum(summary["main_self_s"].values())
    print(
        f"main-process self seconds: layers {layers:.4f} + "
        f"scenarios.result_s {metrics['scenarios.result_s']:.4f} + "
        f"trace.other_s {metrics['trace.other_s']:.4f} = "
        f"{summary['identity_s']:.4f}; traced wall_s "
        f"{metrics['trace.wall_s']:.4f}"
    )
    flag = "  ** over %.2fx: shares distorted **" % MAX_TRACE_OVERHEAD
    print(
        f"tracing overhead {metrics['trace.overhead_ratio']:.3f}x "
        f"(traced {metrics['trace.wall_s']:.3f} s / untraced median "
        f"{summary['untraced_wall_s']:.3f} s)"
        + (flag if summary["overhead_flag"] else "")
    )


def run_set(seed: int, reps: int, quick: bool, checks: Checks,
            trace: bool = True):
    """Every workload: ``reps`` timed runs plus (optionally) one traced."""
    untraced = {
        workload: timed_runs(workload, seed, quick, checks, reps=reps)
        for workload in ref_workloads.WORKLOADS
    }
    checks.add_pair_fingerprint(untraced)
    summaries = {}
    for workload in ref_workloads.WORKLOADS:
        summaries[workload] = (
            traced_run(workload, seed, quick, checks, untraced)
            if trace and all(untraced.values())
            else None
        )
    return untraced, summaries


def report(seed: int, reps: int, quick: bool) -> Tuple[dict, dict, Checks]:
    checks = Checks()
    load = os.getloadavg()[0]
    untraced, summaries = run_set(seed, reps, quick, checks)
    print_host_facts([r for rs in untraced.values() for r in rs], load)
    for workload in ref_workloads.WORKLOADS:
        print_workload(workload, untraced[workload], summaries[workload],
                       checks, seed, quick)
    print(f"\nchecks: {checks.attempted} attempted, {checks.failed} failed")
    return untraced, summaries, checks


def repeat_check(seed: int, reps: int, quick: bool) -> int:
    """Two full sets of timed runs back to back: do the two medians of
    each end-to-end metric agree within the metric's own bound?"""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        bounds = {
            m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]
        }
    checks = Checks()
    load = os.getloadavg()[0]
    sets = [run_set(seed, reps, quick, checks, trace=False)[0]
            for _ in range(2)]
    print_host_facts([r for rs in sets[0].values() for r in rs], load)
    print(f"{'workload':<22}{'metric':<14}{'first':>12}{'second':>12}"
          f"{'ratio':>8}{'bound':>7}  inside")
    outside = 0
    for workload in ref_workloads.WORKLOADS:
        if not (sets[0][workload] and sets[1][workload]):
            continue  # the failed run is already among the checks
        first, second = (medians(s[workload]) for s in sets)
        for metric in END_TO_END:
            a, b = first[metric]["median"], second[metric]["median"]
            inside = abs(b - a) / a <= bounds[metric]
            outside += not inside
            print(f"{workload:<22}{metric:<14}{a:>12.4f}{b:>12.4f}"
                  f"{b / a:>8.3f}{bounds[metric]:>7.2f}  "
                  f"{'yes' if inside else 'NO'}")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed; "
          f"{outside} medians outside their bound")
    return 1 if (checks.failed or outside) else 0


# -- the driver's form: one workload per invocation ------------------------------


def drive(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print the driver's result object as
    the last line. ``--trace 1`` needs untraced rows too (tracing
    overhead, and the barrier pair's speedup), so it adds one untraced
    run of the workload — and of its partner, for the pair."""
    deadline = clock() + INVOCATION_DEADLINE_S
    checks = Checks()
    metrics = None
    if not trace:
        records = timed_runs(workload, seed, False, checks,
                             seconds=seconds, deadline=deadline)
        if len(records) >= MIN_REPS:
            rows = medians(records)
            print_end_to_end(rows)
            metrics = {name: rows[name]["median"] for name in END_TO_END}
    else:
        needed = (
            ref_workloads.BARRIER_PAIR
            if workload in ref_workloads.BARRIER_PAIR
            else (workload,)
        )
        untraced = {
            name: timed_runs(name, seed, False, checks, reps=1,
                             deadline=deadline)
            for name in needed
        }
        summary = None
        if all(untraced.values()):
            if len(needed) == 2:
                checks.add_pair_fingerprint(untraced)
            summary = traced_run(workload, seed, False, checks, untraced,
                                 deadline)
        if summary is not None:
            metrics = summary["metrics"]
            if summary["overhead_flag"]:
                print(f"tracing overhead "
                      f"{metrics['trace.overhead_ratio']:.3f}x is over "
                      f"{MAX_TRACE_OVERHEAD}x: per-layer shares are distorted")
    for failed_workload, name, passed, detail in checks.rows:
        if not passed:
            print(f"FAILED {failed_workload}: {name}: {detail}",
                  file=sys.stderr if metrics is None else sys.stdout)
    if metrics is None:
        return 1  # a run produced nothing to report: no result object
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


# -- tier-1 smoke (collected by `pytest benchmarks -o python_files=bench_*.py`) ---


def test_reference_quick(bench_scale):
    """All four workloads, one repetition plus the traced run; at
    ``--bench-quick`` they run at smoke size. Asserts the emitted
    workload and metric names are exactly ``BENCHMARK.json``'s and that
    every check passes; no timing is asserted."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert [w["name"] for w in contract["workloads"]] == list(
        ref_workloads.WORKLOADS
    )
    untraced, summaries, checks = report(
        seed=0, reps=1 if bench_scale.quick else MIN_REPS,
        quick=bench_scale.quick,
    )
    failed = [row for row in checks.rows if not row[2]]
    assert not failed, failed
    declared = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert declared == {name: unit_of(name) for name in END_TO_END}
    declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for workload in ref_workloads.WORKLOADS:
        assert set(untraced[workload][0]["end_to_end"]) == set(END_TO_END)
        emitted = summaries[workload]["metrics"]
        assert declared == {name: unit_of(name) for name in emitted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=ref_workloads.WORKLOADS,
                        help="driver form: measure this workload only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="driver form: seconds of timed runs to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver form: 1 = per-layer metrics")
    parser.add_argument("--reps", type=int, default=MIN_REPS,
                        help="report form: timed repetitions per workload")
    parser.add_argument("--quick", action="store_true",
                        help="report form: smoke sizes")
    parser.add_argument("--repeat-check", action="store_true",
                        help="two sets back to back, medians vs bounds")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print("no src/repro next to the benchmark: nothing to measure",
              file=sys.stderr)
        return 2
    try:
        if args.workload:
            return drive(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        if args.repeat_check:
            return repeat_check(args.seed, args.reps, args.quick)
        _untraced, _summaries, checks = report(
            args.seed, args.reps, args.quick
        )
        return 1 if checks.failed else 0
    finally:
        shutil.rmtree(os.path.join(OUT_DIR, "tmp"), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
