"""The in-repo random-regular generator against two oracles.

``connect_random_regular`` used to call ``nx.random_regular_graph``;
the order of its ``Network.connect`` calls reaches every scenario
fingerprint, so the stdlib port must reproduce it exactly. Pinned
digests hold that without NetworkX installed; the hypothesis
differential holds it against whatever NetworkX is installed.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net import topology
from repro.net.topology import connect_random_regular


class ConnectLog:
    """Stands in for a ``Network``: records the ``connect`` sequence."""

    def __init__(self) -> None:
        self.calls = []

    def connect(self, a, b) -> None:
        self.calls.append((a, b))


def connect_sequence(degree: int, n: int, seed: int):
    log = ConnectLog()
    count = connect_random_regular(log, range(n), degree, seed=seed)
    assert count == len(log.calls)
    return log.calls


def digest(calls) -> str:
    return hashlib.sha256(repr(calls).encode()).hexdigest()[:16]


#: (degree, n, seed) -> digest of the connect sequence, recorded from
#: the port while it agreed with networkx 3.6.1 on every case. (6, 180)
#: and (12, 150) are the reference benchmark's overlay shapes on its
#: two report seeds; the last three have ``degree == n - 1`` or need
#: more than one attempt (RETRIES).
PINNED = {
    (6, 180, 0): "20c535066d6a31ea",
    (6, 180, 4242): "279b62106b2a9e76",
    (12, 150, 0): "75e14d5a9e18597e",
    (12, 150, 4242): "af54980170a19cc7",
    (6, 1000, 0): "bee46f3788812d49",
    (9, 10, 0): "7a3285abc57a1b60",
    (2, 3, 13): "5b88a470c3dc1111",
    (3, 6, 0): "9eaaa927cad3bd7c",
}

#: Cases whose first attempt(s) dead-end: whole attempts needed.
RETRIES = {(2, 3, 13): 2, (3, 6, 0): 7}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_connect_sequence_is_pinned(case):
    degree, n, _seed = case
    calls = connect_sequence(*case)
    assert digest(calls) == PINNED[case]
    assert len(calls) == n * degree // 2
    assert all(a < b for a, b in calls)
    degrees = [0] * n
    for a, b in calls:
        degrees[a] += 1
        degrees[b] += 1
    assert degrees == [degree] * n


@pytest.mark.parametrize("case", sorted(RETRIES))
def test_dead_end_attempts_are_retried_on_the_same_generator(
    case, monkeypatch
):
    degree, n, _seed = case
    attempts = []

    class CountingRandom(random.Random):
        def shuffle(self, x):
            if len(x) == degree * n:  # an attempt opens with every stub
                attempts.append(1)
            super().shuffle(x)

    monkeypatch.setattr(topology.random, "Random", CountingRandom)
    calls = connect_sequence(*case)
    assert len(attempts) == RETRIES[case]
    assert digest(calls) == PINNED[case]


def test_complete_graph_when_degree_is_n_minus_one():
    calls = connect_sequence(2, 3, 13)
    assert calls == [(0, 1), (0, 2), (1, 2)]
    assert sorted(connect_sequence(9, 10, 0)) == [
        (a, b) for a in range(10) for b in range(a + 1, 10)
    ]


def test_degree_zero_wires_nothing():
    assert connect_sequence(0, 7, 3) == []


@pytest.mark.parametrize("degree", [-1, -2, -7])
def test_negative_degree_is_a_typed_error(degree):
    log = ConnectLog()
    with pytest.raises(NetworkError, match="negative"):
        connect_random_regular(log, range(8), degree, seed=0)
    assert log.calls == []


@st.composite
def regular_cases(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    degree = draw(st.integers(min_value=0, max_value=n - 1))
    if (n * degree) % 2:
        degree -= 1
    return degree, n, draw(st.integers(min_value=0, max_value=2**32))


@settings(max_examples=150, deadline=None)
@given(regular_cases())
def test_differential_against_networkx(case):
    nx = pytest.importorskip("networkx")
    degree, n, seed = case
    expected = list(nx.random_regular_graph(degree, n, seed=seed).edges())
    assert connect_sequence(degree, n, seed) == expected


# -- import guard ---------------------------------------------------------
#
# NetworkX costs ~15 MB of RSS and ~0.15 s per process; the scenario
# path and the CLI must not load it. A fresh interpreter, because this
# one has imported it for the differential above.

SRC = str(Path(__file__).resolve().parents[2] / "src")

GUARDED = {
    "scenario-runner": "import repro.scenarios.runner",
    "list-scenarios": (
        "import runpy, sys\n"
        "sys.argv = ['repro.analysis', 'list-scenarios']\n"
        "try:\n"
        "    runpy.run_module('repro.analysis', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code"
    ),
}


@pytest.mark.parametrize("entry", sorted(GUARDED))
def test_scenario_path_does_not_import_networkx(entry):
    existing = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=SRC + (os.pathsep + existing if existing else ""),
        PYTHONHASHSEED="0",  # the CLI would re-exec itself to pin it
    )
    code = GUARDED[entry] + (
        "\nimport sys\nassert 'networkx' not in sys.modules, 'networkx loaded'"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
