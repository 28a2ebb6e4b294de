"""One benchmark run in this process: build a workload, run it, report.

The orchestrator (``bench_reference.py``) starts this file in a fresh
``PYTHONHASHSEED=0`` interpreter per run and reads the single JSON
object it prints. ``--trace 0`` measures the end-to-end metrics with
only the two call-once phase marks installed; ``--trace 1`` installs
the span wrappers of :mod:`ref_trace` and adds the per-layer ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import ref_trace  # noqa: E402
import ref_workloads  # noqa: E402

clock = ref_trace.clock


def _peak_rss_mb(forked: bool) -> float:
    """Peak RSS summed over the run's processes: this process's
    ``VmHWM`` plus, for a forked run, every worker's ``ru_maxrss``
    (the in-process driver records this process there; counting it
    again would double it)."""
    from repro.scenarios import parallel

    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own_kib = int(line.split()[1])
    except OSError:
        pass
    workers_kib = sum(parallel.LAST_RUN_WORKER_RSS) if forked else 0
    return (own_kib + workers_kib) / 1024.0


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _hash2_ns(calls: int = 10000, loops: int = 3) -> float:
    """Cost of one ``hash2_int`` under the active backend: the fastest
    of a few timed loops (never per-call timing inside the run)."""
    from repro.crypto.hashing import hash2_int

    best = float("inf")
    for _ in range(loops):
        value = 1
        begin = clock()
        for i in range(calls):
            value = hash2_int(value, i)
        best = min(best, clock() - begin)
    return best / calls * 1e9


def run(workload: str, seed: int, quick: bool, trace: bool,
        dump_dir: str) -> dict:
    spawned = float(os.environ["REF_BENCH_SPAWNED"])
    entered = clock()
    from repro.crypto.hashing import get_hash_backend, hash_call_count
    from repro.scenarios.runner import ScenarioRunner

    marks = ref_trace.Marks()
    marks.install()
    recorder = None
    if trace:
        recorder = ref_trace.SpanRecorder(dump_dir, marks)
        recorder.install()

    spec = ref_workloads.build_spec(workload, seed, quick)
    forked = spec.parallel_workers > 1
    runner = ScenarioRunner(spec)
    result = runner.run()
    returned = clock()
    hashes_end = hash_call_count()
    cpu = _cpu_seconds()
    rss = _peak_rss_mb(forked)
    if marks.kernel_start is None:
        raise RuntimeError("the kernel-start mark never fired")

    wall = returned - marks.kernel_start
    agents = spec.adversaries.total_count
    record = {
        "workload": workload,
        "seed": seed,
        "fingerprint": result.fingerprint(),
        "hash_backend": get_hash_backend(),
        "end_to_end": {
            "setup_s": marks.kernel_start - spawned,
            "wall_s": wall,
            "cpu_s": cpu,
            "events_per_s": result.events_processed / wall,
            "peak_rss_mb": rss,
        },
        "events_processed": result.events_processed,
        "delivery_rate": result.delivery_rate,
        "honest_published": result.honest_published,
        "members_slashed": result.members_slashed,
        "adversary_identities": agents + result.identity_rotations,
        "spam_per_honest_peer": result.spam_per_honest_peer,
        "extras": result.extras,
    }
    if recorder is not None:
        record["trace"] = _reduce(
            recorder, marks, runner, result, entered, returned, hashes_end
        )
    return record


def _reduce(recorder, marks, runner, result, entered, returned,
            hashes_end) -> dict:
    """Turn the recorded spans into the per-layer ledger.

    Seconds are self seconds of the run phase (kernel start to
    ``run()`` returning) summed over the main process and any forked
    workers; ``main_self_s`` keeps the main-process part alone, whose
    rows plus ``other_s`` add up to the traced ``wall_s``. The three
    set-up stages (genesis, register_all, materialize) are total
    seconds of the set-up phase instead: they delimit stages of
    ``setup_s``, they are not shares of ``wall_s``.
    """
    main = recorder.spans()
    workers = recorder.load_workers()
    start = marks.kernel_start
    wall = returned - start
    # Kernel end: the last window (or Simulator.run) returning; for a
    # forked run, the coordinator receiving the last worker bundle.
    kernel_end = max(main.last_end("sim.kernel"), main.last_end("barrier.recv"))
    setup = main.ledger(entered, start)
    run_rows = main.ledger(start, kernel_end)
    tail_rows = main.ledger(kernel_end, returned)

    names = list(main.names)
    main_self = {
        name: run_rows[name][1] + tail_rows[name][1] for name in names
    }
    # run()'s own time is the remainder no wrapped call covers: before
    # the kernel ends it is `other_s`, after it `scenarios.result_s`.
    del main_self["scenarios.run"]
    other_s = run_rows["scenarios.run"][1]
    result_s = tail_rows["scenarios.run"][1]

    calls = {name: run_rows[name][0] + tail_rows[name][0] for name in names}
    self_s = dict(main_self)
    total_s = {name: run_rows[name][2] + tail_rows[name][2] for name in names}
    setup_total = {name: setup[name][2] for name in names}
    hashes_setup = marks.hashes_at_kernel_start
    hashes_run = hashes_end - hashes_setup

    worker_rows = []
    bytes_up = 0
    for spans in workers:
        info = spans.info
        w_setup = spans.ledger(info["fork_time"], info["ready_time"])
        w_run = spans.ledger(info["ready_time"], info["done_time"])
        for name in self_s:
            calls[name] += w_run[name][0]
            self_s[name] += w_run[name][1]
            setup_total[name] += w_setup[name][2]
        busy = sum(w_run[name][2] for name in ref_trace.WORKER_BUSY)
        w_wall = info["done_time"] - info["ready_time"]
        worker_rows.append(
            {"wall_s": w_wall, "busy_s": busy, "wait_s": w_wall - busy}
        )
        hashes_setup += info["hashes_setup"]
        hashes_run += info["hashes_run"]
        bytes_up += info["bytes_sent"]

    counters = result.counters
    extras = result.extras
    deliver_calls = calls["gossipsub.deliver"]
    lookups = result.verification_cache_hits + result.proof_verifications
    membership_events = extras.get("membership_events", 0.0)
    hash2_ns = _hash2_ns()
    metrics = {
        "sim.events": result.events_processed,
        "sim.kernel_self_s": self_s["sim.kernel"],
        "net.send_calls": calls["net.send"],
        "net.send_s": self_s["net.send"],
        "gossipsub.deliver_calls": deliver_calls,
        "gossipsub.deliver_self_s": self_s["gossipsub.deliver"],
        "gossipsub.heartbeat_calls": calls["gossipsub.heartbeat"],
        "gossipsub.heartbeat_self_s": self_s["gossipsub.heartbeat"],
        "gossipsub.publish_self_s": self_s["gossipsub.publish"],
        "gossipsub.duplicate_ratio": (
            counters.get("gossipsub.duplicates", 0) / deliver_calls
            if deliver_calls
            else 0.0
        ),
        "core.validate_calls": calls["core.validate"],
        "core.validate_self_s": self_s["core.validate"],
        "core.publish_self_s": self_s["core.publish"],
        "core.sync_calls": calls["core.sync"],
        "core.sync_s": self_s["core.sync"],
        "core.nullifier_observe_s": self_s["core.nullifier_observe"],
        "rln.check_calls": calls["rln.check"],
        "rln.check_self_s": self_s["rln.check"],
        "rln.proof_verifications": result.proof_verifications,
        "rln.cache_hit_ratio": (
            result.verification_cache_hits / lookups if lookups else 0.0
        ),
        "rln.verify_s": self_s["rln.verify"],
        "rln.create_signal_s": self_s["rln.create_signal"],
        "rln.memo_commit_s": self_s["rln.memo_commit"],
        "crypto.hash_calls_setup": hashes_setup,
        "crypto.hash_calls_run": hashes_run,
        "crypto.hash2_ns": hash2_ns,
        "crypto.hash_est_s": (hashes_setup + hashes_run) * hash2_ns / 1e9,
        "membership.genesis_s": setup_total["membership.genesis"],
        "membership.register_all_s": setup_total["membership.register_all"],
        "membership.apply_calls": calls["membership.apply"],
        "membership.apply_s": self_s["membership.apply"],
        "membership.proof_calls": calls["membership.proof"],
        "membership.proof_s": self_s["membership.proof"],
        "membership.dedup_ratio": (
            extras.get("membership_events_deduped", 0.0) / membership_events
            if membership_events
            else 0.0
        ),
        "membership.subtrees_materialized": extras.get(
            "membership_subtrees_materialized", 0.0
        ),
        "eth.transact_calls": calls["eth.transact"],
        "eth.transact_s": self_s["eth.transact"],
        "eth.mine_calls": calls["eth.mine"],
        "eth.mine_s": self_s["eth.mine"],
        "eth.replica_apply_s": self_s["eth.replica_apply"],
        "eth.order_ops_s": self_s["eth.order_ops"],
        "watchtower.store_calls": calls["watchtower.store"],
        "watchtower.store_s": self_s["watchtower.store"],
        "scenarios.materialize_s": setup_total["scenarios.materialize"],
        "scenarios.result_s": result_s,
        "trace.wall_s": wall,
        "trace.other_s": other_s,
        # Traced wall / untraced median wall: the orchestrator's to
        # fill in, it alone sees both runs.
        "trace.overhead_ratio": 0.0,
    }
    metrics.update(
        _barrier_metrics(
            runner, main_self, total_s, wall, workers, worker_rows,
            recorder.bytes_sent, bytes_up, self_s,
        )
    )
    identity = sum(main_self.values()) + result_s + other_s
    return {
        "metrics": metrics,
        "main_self_s": main_self,
        "identity_s": identity,
        "workers": worker_rows,
    }


def _barrier_metrics(runner, main_self, total_s, wall, workers, worker_rows,
                     bytes_down, bytes_up, self_s) -> dict:
    """``barrier.*`` rows; all 0 on the serial kernel. ``speedup`` and
    ``cpu_ratio`` compare two workloads' end-to-end rows, so the
    orchestrator fills them in."""
    rows = {
        "barrier.count": 0,
        "barrier.cross_shard_ratio": 0.0,
        "barrier.worker_busy_s_max": 0.0,
        "barrier.worker_busy_s_sum": 0.0,
        "barrier.worker_wait_s_sum": 0.0,
        "barrier.coordinator_busy_s": 0.0,
        "barrier.coordinator_wait_s": 0.0,
        "barrier.send_s": 0.0,
        "barrier.bytes_down": 0,
        "barrier.bytes_up": 0,
        "barrier.speedup": 0.0,
        "barrier.cpu_ratio": 0.0,
    }
    if not runner.spec.parallel_workers:
        return rows
    if workers:
        stats = [spans.info["shard_stats"] for spans in workers]
        busy = [row["busy_s"] for row in worker_rows]
        waits = sum(row["wait_s"] for row in worker_rows)
        # Blocked in pickle.load: the workers' compute plus unpickling.
        coordinator_wait = main_self["barrier.recv"]
        coordinator_busy = wall - coordinator_wait
    else:
        # In-process driver: this process is the one worker.
        stats = [runner.net.simulator.shard_stats()]
        busy = [sum(total_s[name] for name in ref_trace.WORKER_BUSY)]
        waits = 0.0
        coordinator_wait = 0.0
        coordinator_busy = wall - busy[0]
    events = sum(sum(s["events_by_shard"]) for s in stats)
    crossed = sum(s["cross_shard_scheduled"] for s in stats)
    rows.update(
        {
            "barrier.count": stats[0]["barriers"],
            "barrier.cross_shard_ratio": crossed / events if events else 0.0,
            "barrier.worker_busy_s_max": max(busy),
            "barrier.worker_busy_s_sum": sum(busy),
            "barrier.worker_wait_s_sum": waits,
            "barrier.coordinator_busy_s": coordinator_busy,
            "barrier.coordinator_wait_s": coordinator_wait,
            "barrier.send_s": self_s.get("barrier.send", 0.0),
            "barrier.bytes_down": bytes_down,
            "barrier.bytes_up": bytes_up,
        }
    )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=ref_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--dump-dir", required=True)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, bool(args.quick),
                 bool(args.trace), args.dump_dir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
