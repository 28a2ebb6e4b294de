"""Fingerprints do not depend on Python's string-hash seed.

Each run happens in a fresh interpreter started through the scenario
CLI, so the hash seed really differs between the two runs compared (a
single process has one hash seed for its whole life).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def cli_fingerprint(name: str, hash_seed: str) -> str:
    existing = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=SRC + (os.pathsep + existing if existing else ""),
        PYTHONHASHSEED=hash_seed,
    )
    args = ["run-scenario", name, "--peers", "40", "--duration", "20"]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args, "--seed", "3"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    return next(ln for ln in lines if ln.split()[:1] == ["fingerprint"])


@pytest.mark.parametrize("name", ["multi-topic-churn", "delegated-enforcement"])
def test_fingerprint_is_the_same_under_two_hash_seeds(name):
    assert cli_fingerprint(name, "0") == cli_fingerprint(name, "7")
