"""Tier-1 smoke job for the benchmark suite.

Benchmarks are not collected by the default test run (their files are
``bench_*.py``), which historically let them rot as APIs moved. This
test runs the whole suite in ``--bench-quick`` mode — every bench
script must import, build its rig and complete one tiny iteration —
inside a subprocess, so a bench failure surfaces in tier-1 without
tier-1 paying full benchmark cost.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_bench_quick_suite_runs():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    env.setdefault("PYTHONHASHSEED", "0")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks",
            "-o",
            "python_files=bench_*.py",
            "--bench-quick",
            "--benchmark-disable",
            "-q",
            "-x",
            "-p",
            "no:cacheprovider",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=800,
    )
    assert proc.returncode == 0, (
        "bench quick-smoke failed:\n"
        + proc.stdout[-4000:]
        + proc.stderr[-2000:]
    )


def test_committed_benchmark_json_matches_schema():
    """Every committed results/*.json must parse against the schema.

    The JSON twins of the benchmark tables are the repo's perf
    trajectory; this guards the committed artefacts themselves, while
    ``record_table`` validates fresh payloads at write time.
    """
    import json
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.analysis.reporting import validate_experiment_payload

    results = sorted((REPO_ROOT / "benchmarks" / "results").glob("*.json"))
    assert results, "no committed benchmark JSON results found"
    for path in results:
        payload = json.loads(path.read_text())
        validate_experiment_payload(payload)
        assert payload["name"] == path.stem


def test_committed_paper_claims_cover_e1_to_e10_and_all_pass():
    """The committed full-scale claims table has a row for every
    E-number of the paper and every row meets its bound."""
    import json
    import re

    path = REPO_ROOT / "benchmarks" / "results" / "paper_claims.json"
    payload = json.loads(path.read_text())
    assert payload["meta"]["scale"] == "full"
    headers = payload["headers"]
    eid, verdict = headers.index("E-id"), headers.index("pass")
    numbers = {
        int(re.fullmatch(r"E(\d+)[a-z]?", row[eid]).group(1))
        for row in payload["rows"]
    }
    assert numbers == set(range(1, 11))
    failing = [row for row in payload["rows"] if row[verdict] != "yes"]
    assert not failing, f"claims not reproduced: {failing}"
