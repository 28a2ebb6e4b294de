"""Smoke test: the attack and economics examples run end to end.

Each example's ``main()`` is loaded from its file and called in this
process; the test checks the run printed the lines a reader looks for.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    "script,expected",
    [
        (
            "spam_attack.py",
            ("spammer still a member?            False", "burnt:"),
        ),
        (
            "baseline_comparison.py",
            ("Waku-RLN-Relay", "plain relay (no protection)", "Whisper PoW"),
        ),
        (
            "slashing_economics.py",
            ("total attacker loss", "rewarded reporters", "Gas vs tree depth"),
        ),
    ],
)
def test_example_main_runs(script, expected, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="example")["main"]()
    out = capsys.readouterr().out
    for text in expected:
        assert text in out
