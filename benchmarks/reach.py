"""Which lines inside ``def``s under ``src/`` no run reaches.

A ``sys.setprofile`` hook records the code objects a run set calls in this
process (not in forked workers or subprocesses); each ``def`` under ``src/``
whose code never ran is listed, its nested ``def``s with it. Run set: the
built-in scenarios at <= ``--peers`` peers / <= 20 s (seed 3), two again at
1 and 2 workers, the reference specs at quick size, each ``repro.analysis``
command, the examples, last ``pytest benchmarks --bench-quick`` (a ``def`` only
it reaches is "bench only"). Writes the table ``unreached.{txt,json}``::

    PYTHONPATH=src python benchmarks/reach.py [--only GLOB ...] [--peers N] [--out DIR]
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = "bench:quick"
DEF = (ast.FunctionDef, ast.AsyncFunctionDef)
_called: set = set()


def run_set(peers: int):
    """(name, thunk) per run, in order."""
    import pytest
    from repro.analysis.__main__ import EXPERIMENTS, main as cli
    from repro.scenarios.registry import scenario, scenario_names
    from repro.scenarios.runner import ScenarioRunner, run_scenario

    def sized(name, workers=None):
        spec = scenario(name)
        return lambda: run_scenario(spec, min(peers, spec.peers), min(
            20.0, spec.duration), 3, parallel_workers=workers)

    runs = [(f"scenario:{name}", sized(name)) for name in scenario_names()]
    for name in ("multi-topic-churn", "delegated-enforcement"):
        runs += [(f"scenario:{name}@{w}", sized(name, w)) for w in (1, 2)]
    sys.path.insert(0, str(ROOT / "benchmarks" / "reference"))
    import ref_workloads
    runs += [(f"reference:{w}", lambda w=w: ScenarioRunner(
        ref_workloads.build_spec(w, 0, True)).run()) for w in ref_workloads.WORKLOADS]
    runs += [(f"analysis:{' '.join(argv)}", lambda argv=argv: cli(argv)) for argv in [
        *([key] for key in EXPERIMENTS), ["list-scenarios"], ["list-strategies"],
        ["run-scenario", "honest-steady", "--peers", "10", "--duration", "10"]]]
    runs += [(f"example:{path.stem}", lambda path=path: runpy.run_path(
        str(path), run_name="__main__")) for path in sorted(ROOT.glob("examples/*.py"))]
    return runs + [(BENCH, lambda: pytest.main([
        str(ROOT / "benchmarks"), "-o", "python_files=bench_*.py", "--bench-quick",
        "--benchmark-disable", "-q", "-p", "no:cacheprovider"]))]


def defs(node, prefix=""):
    """(qualified name, first line, line count) of every def, in order."""
    for child in ast.iter_child_nodes(node):
        name = prefix + (getattr(child, "name", None) or "")
        if isinstance(child, DEF):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield name, first, child.end_lineno - first + 1
        yield from defs(child, name + "." if isinstance(
            child, (*DEF, ast.ClassDef)) else prefix)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="*", default=["*"], help="run-name globs")
    parser.add_argument("--peers", type=int, default=40)
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "results")
    args = parser.parse_args(argv)
    by_run = {}
    # Set before the imports: the calls they make count too.
    sys.setprofile(lambda frame, event, _: event == "call" and _called.add(frame.f_code))
    for name, thunk in run_set(args.peers):
        if any(fnmatch.fnmatch(name, glob) for glob in args.only):
            thunk()
            by_run[name] = {(c.co_filename, c.co_firstlineno) for c in _called.copy()}
            _called.clear()
    sys.setprofile(None)
    others = set().union(*(s for n, s in by_run.items() if n != BENCH))
    bench = by_run.get(BENCH, set()) - others
    rows, total, outer, inner = [], 0, {}, {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = str(path.relative_to(ROOT / "src"))
        for name, first, lines in defs(ast.parse(path.read_text())):
            if first > outer.get(rel, 0):  # outermost: its lines count once
                total, outer[rel] = total + lines, first + lines - 1
            key = (str(path), first)
            if key in others or first <= inner.get(rel, 0):
                continue
            inner[rel] = first + lines - 1
            rows.append((rel, name, first, lines, "yes" if key in bench else ""))
    from repro.analysis.reporting import experiment_payload, format_experiment

    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    cold = sum(row[3] for row in rows if not row[4])
    meta = {"commit": commit, "peers": args.peers, "runs": len(by_run),
            "lines_in_defs": total, "unreached_lines": cold,
            "bench_only_lines": sum(row[3] for row in rows) - cold}
    title = (f"Defs under src/ no run reaches at {commit}: {cold} of {total} lines, "
             f"and {meta['bench_only_lines']} more only the bench reaches")
    table = ("unreached", title, ("file", "def", "line", "lines", "bench only"), rows,
             "Run set: " + ", ".join(by_run) + ".")
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "unreached.txt").write_text(format_experiment(*table[1:]))
    (args.out / "unreached.json").write_text(
        json.dumps(experiment_payload(*table, meta), indent=2) + "\n")
    print(title)

if __name__ == "__main__":
    raise SystemExit(main())
