"""A run process loads only what it runs.

``hashlib``, ``hmac`` and ``secrets`` map OpenSSL's ``libcrypto``
(~3 MB resident) although every digest the code takes comes from
CPython's builtin modules (:mod:`repro.crypto.digests`), and SQLite
serves only the watchtower subsystem. Package ``__init__`` modules
re-export nothing, so a serial relay run never loads the barrier
drivers, the scenario registry, the adversary engine, the R1CS stack
or the experiment harness. Each check runs in a fresh interpreter:
pytest itself has already imported ``hashlib`` here.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a run without watchtowers must never load.
UNUSED = ("_hashlib", "hmac", "secrets", "sqlite3")

#: Modules a serial run of a literal spec with no adversaries and no
#: watchtowers executes nothing of, so must never load.
SERIAL_UNUSED = (
    "repro.scenarios.parallel",
    "repro.sim.parallel_stack",
    "repro.scenarios.registry",
    "repro.adversaries.base",
    "repro.adversaries.engine",
    "repro.adversaries.strategies",
    "repro.crypto.zksnark.r1cs",
    "repro.crypto.zksnark.gadgets",
    "repro.crypto.zksnark.timing",
    "repro.crypto.merkle_optimized",
    "repro.core.economics",
    "pickle",
)

#: Packages none of whose modules a serial relay run loads.
SERIAL_UNUSED_PACKAGES = (
    "repro.analysis",
    "repro.baselines",
    "repro.watchtower",
)


def modules_after(code: str) -> set:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    code += "import sys\nprint(' '.join(sys.modules))\n"
    existing = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + existing if existing else ""),
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


def loaded_after_run(scenario: str, peers: int, duration: float) -> set:
    """Which of :data:`UNUSED` are in ``sys.modules`` after importing
    the runner and running ``scenario`` small, in a fresh interpreter."""
    loaded = modules_after(
        "from repro.scenarios.registry import scenario\n"
        "from repro.scenarios.runner import run_scenario\n"
        f"run_scenario(scenario({scenario!r}), peers={peers}, "
        f"duration={duration}, seed=1)\n"
    )
    return loaded & set(UNUSED)


def literal_spec_run(**spec_fields) -> set:
    """``sys.modules`` after running a literal ``ScenarioSpec`` (no
    registry, no adversaries, no watchtowers) small."""
    fields = ", ".join(f"{k}={v!r}" for k, v in spec_fields.items())
    return modules_after(
        "from repro.scenarios.runner import run_scenario\n"
        "from repro.scenarios.spec import ScenarioSpec\n"
        "run_scenario(ScenarioSpec(name='literal', description='d', "
        f"peers=10, duration=5.0, {fields}), seed=1)\n"
    )


def test_a_run_without_watchtowers_loads_neither_openssl_nor_sqlite():
    assert loaded_after_run("honest-steady", 10, 5.0) == set()


def test_a_run_with_a_watchtower_loads_sqlite_on_first_use():
    # The watchtower import is deferred, not removed; OpenSSL stays out.
    assert loaded_after_run("delegated-enforcement", 12, 10.0) == {"sqlite3"}


def test_a_serial_relay_run_loads_only_the_modules_it_executes():
    loaded = literal_spec_run()
    assert "repro.scenarios.runner" in loaded
    assert loaded & set(SERIAL_UNUSED) == set()
    stray = sorted(
        name
        for name in loaded
        if any(name.startswith(pkg + ".") for pkg in SERIAL_UNUSED_PACKAGES)
    )
    assert stray == []


def test_a_windowed_run_loads_the_barrier_driver_on_first_use():
    loaded = literal_spec_run(parallel_workers=1)
    assert {"repro.scenarios.parallel", "repro.sim.parallel_stack"} <= loaded
    assert "repro.scenarios.registry" not in loaded


def test_no_package_init_imports_anything():
    offenders = []
    for init in sorted(SRC.glob("repro/**/__init__.py")):
        tree = ast.parse(init.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                offenders.append(f"{init.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
