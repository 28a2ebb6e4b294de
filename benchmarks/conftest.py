"""Shared helpers for the benchmark suite.

The paper's claims E1-E10 are one table: ``bench_paper_claims.py``
checks each against its stated bound and writes
``results/paper_claims.txt`` (and its JSON twin). The other
``bench_*`` modules measure this implementation's own scale and
performance. Tables are printed (visible with ``pytest -s``) and
written to ``benchmarks/results/*.txt``.

Quick mode
----------

``pytest benchmarks --bench-quick`` runs every benchmark at a tiny
scale: each script still imports, builds its rig and completes one
iteration, but with sizes shrunk through the :func:`bench_scale`
fixture and with performance *assertions* relaxed (timing comparisons
are meaningless at toy sizes). The tier-1 suite runs this mode as a
smoke job (``tests/benchmarks/test_bench_quick_smoke.py``) so bench
scripts cannot silently rot as the APIs underneath them move.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--bench-quick",
        action="store_true",
        default=False,
        help="run benchmarks at smoke scale (one tiny iteration, "
        "timing assertions relaxed)",
    )


@dataclass(frozen=True)
class BenchScale:
    """Scale selector handed to every benchmark.

    ``quick`` is True under ``--bench-quick``; ``n(full, quick)`` picks
    the matching size. Benchmarks must keep *assertions about timing*
    behind ``if not scale.quick`` — correctness assertions stay on.
    """

    quick: bool

    def n(self, full, quick):
        return quick if self.quick else full


@pytest.fixture(scope="session")
def bench_scale(request) -> BenchScale:
    return BenchScale(quick=request.config.getoption("--bench-quick"))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir, bench_scale):
    """Write (and echo) one experiment table, plus its JSON twin.

    Every table is also emitted as a schema-validated JSON payload
    (``benchmarks/results/<name>.json``) so perf numbers accumulate as
    a machine-readable trajectory; ``meta`` carries key figures (scale,
    wall-clock, hash counts, cache hit rates) a tracker should not have
    to re-parse out of table cells.

    Under ``--bench-quick`` the table is printed and the payload is
    still schema-validated, but nothing is persisted: smoke-scale
    numbers must never overwrite the recorded full-scale results.
    """

    def write(
        name: str,
        title: str,
        headers,
        rows,
        note: str = "",
        meta: dict = None,
    ) -> str:
        import json

        from repro.analysis.reporting import (
            experiment_payload,
            format_experiment,
        )

        text = format_experiment(title, headers, rows, note)
        payload = experiment_payload(
            name, title, headers, rows, note, meta
        )
        if not bench_scale.quick:
            (results_dir / f"{name}.txt").write_text(text)
            (results_dir / f"{name}.json").write_text(
                json.dumps(payload, indent=2) + "\n"
            )
        print("\n" + text)
        return text

    return write
