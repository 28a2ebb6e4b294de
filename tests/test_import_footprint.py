"""A run process loads only what it runs.

``hashlib``, ``hmac`` and ``secrets`` map OpenSSL's ``libcrypto``
(~3 MB resident) although every digest the code takes comes from
CPython's builtin modules (:mod:`repro.crypto.digests`), and SQLite
serves only the watchtower subsystem. Each check runs in a fresh
interpreter: pytest itself has already imported ``hashlib`` here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules a run without watchtowers must never load.
UNUSED = ("_hashlib", "hmac", "secrets", "sqlite3")


def loaded_after_run(scenario: str, peers: int, duration: float) -> set:
    """Which of :data:`UNUSED` are in ``sys.modules`` after importing
    the runner and running ``scenario`` small, in a fresh interpreter."""
    code = (
        "import sys\n"
        "from repro.scenarios.registry import scenario\n"
        "from repro.scenarios.runner import run_scenario\n"
        f"run_scenario(scenario({scenario!r}), peers={peers}, "
        f"duration={duration}, seed=1)\n"
        f"print(' '.join(m for m in {UNUSED!r} if m in sys.modules))\n"
    )
    existing = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=SRC + (os.pathsep + existing if existing else ""),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stdout.split())


def test_a_run_without_watchtowers_loads_neither_openssl_nor_sqlite():
    assert loaded_after_run("honest-steady", 10, 5.0) == set()


def test_a_run_with_a_watchtower_loads_sqlite_on_first_use():
    # The watchtower import is deferred, not removed; OpenSSL stays out.
    assert loaded_after_run("delegated-enforcement", 12, 10.0) == {"sqlite3"}
