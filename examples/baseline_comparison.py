#!/usr/bin/env python
"""Baseline comparison: the same flood against four systems.

Reproduces the paper's Section I argument in one run: proof-of-work and
peer scoring do not provide *global* spam protection — a resourceful or
Sybil attacker keeps spamming — while Waku-RLN-Relay removes the
attacker identity network-wide and makes it pay.

Run:  python examples/baseline_comparison.py
"""

from repro.analysis import (
    format_experiment,
    routing_overhead_experiment,
    spam_protection_experiment,
)


def main() -> None:
    headers, rows = spam_protection_experiment(peer_count=30)
    print(
        format_experiment(
            "Spam reach under the same attack (30 honest peers)",
            headers,
            rows,
            note=(
                "RLN bounds spam to one message per epoch per identity and\n"
                "removes the spammer permanently; the baselines either relay\n"
                "everything or only throttle individual connections."
            ),
        )
    )
    headers, rows = routing_overhead_experiment()
    print(
        format_experiment(
            "Per-message computational cost by device class",
            headers,
            rows,
            note=(
                "PoW must be mined for EVERY message and is prohibitive on\n"
                "weak devices; RLN proves once per epoch and verification\n"
                "is constant-time — the paper's resource-restriction claim."
            ),
        )
    )


if __name__ == "__main__":
    main()
