"""Tier-1 ratchet on the size of ``src/``.

Every concept should have one implementation: a replaced mode becomes a
small oracle under ``tests/``, not a second shipped path. This guard
turns "net source lines go down" into a check that fires. A change that
deletes code lowers ``CEILING`` to the new count; one that must grow
``src/`` raises it and says why in its change notes.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
RUNNER = SRC / "repro" / "scenarios" / "runner.py"

#: Machinery of the parallel mode, which lives in
#: ``scenarios/parallel.py`` (``WindowedScenarioRunner``): the serial
#: runner names none of it.
PARALLEL_ONLY = (
    "owned",
    "ghost",
    "_override",
    "_spam_feed",
    "ChurnPlan",
    "ExpectedTracker",
    "restrict_to",
)

#: ``wc -l`` over ``src/**/*.py``, as last lowered.
CEILING = 16128


def source_lines() -> int:
    return sum(
        path.read_text(encoding="utf-8").count("\n")
        for path in SRC.rglob("*.py")
    )


def test_source_lines_stay_under_the_ceiling():
    lines = source_lines()
    assert lines <= CEILING, (
        f"src/ has {lines} lines, over the ceiling of {CEILING}: delete "
        "as much as you add, or raise CEILING and say why"
    )


def test_the_serial_runner_carries_no_parallel_branches():
    text = RUNNER.read_text(encoding="utf-8")
    assert [name for name in PARALLEL_ONLY if name in text] == []
    # The worker count is read once: in ``ScenarioRunner.__new__``,
    # which picks the windowed subclass.
    runner_class = next(
        node
        for node in ast.parse(text).body
        if isinstance(node, ast.ClassDef) and node.name == "ScenarioRunner"
    )
    dispatch = next(
        node
        for node in runner_class.body
        if isinstance(node, ast.FunctionDef) and node.name == "__new__"
    )
    mentions = [
        number
        for number, line in enumerate(text.splitlines(), start=1)
        if "parallel_workers" in line
    ]
    assert mentions, "the dispatch must read spec.parallel_workers"
    assert all(
        dispatch.lineno <= number <= dispatch.end_lineno
        for number in mentions
    ), mentions
