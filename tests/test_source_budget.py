"""Tier-1 ratchet on the size of ``src/``.

Every concept should have one implementation: a replaced mode becomes a
small oracle under ``tests/``, not a second shipped path. This guard
turns "net source lines go down" into a check that fires. A change that
deletes code lowers ``CEILING`` to the new count; one that must grow
``src/`` raises it and says why in its change notes.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``wc -l`` over ``src/**/*.py``, as last lowered.
CEILING = 16213


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
