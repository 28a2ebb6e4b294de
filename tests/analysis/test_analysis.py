"""Tests for the experiment harness: reporting and runner smoke tests.

The heavyweight experiment content is asserted in ``benchmarks/``; the
tests here pin the harness API (headers/rows shape, formatting) with
small parameterisations so refactors cannot silently break the
reproduction pipeline.
"""

import pytest

from repro.analysis.ablations import epoch_length_ablation, root_window_ablation
from repro.analysis.chain_experiments import (
    economics_experiment,
    gas_cost_experiment,
)
from repro.analysis.crypto_experiments import (
    key_material_experiment,
    merkle_storage_experiment,
    paper_reference_row,
    proof_generation_experiment,
    proof_verification_experiment,
)
from repro.analysis.reporting import (
    format_experiment,
    format_table,
    format_value,
)
from repro.analysis.scaling import network_scaling_experiment
from repro.analysis.spam_experiments import (
    nullifier_map_experiment,
    spam_protection_experiment,
)


class TestFormatting:
    def test_format_table_alignment(self):
        table = format_table(("a", "bbb"), [(1, 2), (333, 4)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}

    def test_format_table_empty_rows(self):
        table = format_table(("x",), [])
        assert "x" in table

    def test_format_experiment_note(self):
        text = format_experiment("T", ("h",), [(1,)], note="a note")
        assert text.startswith("== T ==")
        assert text.rstrip().endswith("a note")

    def test_format_value_floats(self):
        assert format_value(0.5) == "0.5"
        assert format_value(1.23e-7) == "1.230e-07"
        assert format_value(123456.0) == "1.235e+05"
        assert format_value(0) == "0"

    def test_format_value_large_ints_grouped(self):
        assert format_value(1_000_000) == "1,000,000"

    def test_format_value_small_ints_and_text_verbatim(self):
        assert format_value(9_999) == "9999"
        assert format_value(-500) == "-500"
        assert format_value("67 MB") == "67 MB"
        assert format_value(True) == "True"


class TestExperimentPayload:
    def test_roundtrip_and_validation(self):
        import json

        from repro.analysis.reporting import (
            experiment_payload,
            validate_experiment_payload,
        )

        payload = experiment_payload(
            "bench_x",
            "Title",
            ("mode", "seconds"),
            [("fast", 1.5), ("slow", 3)],
            note="n",
            meta={"speedup": 2.0},
        )
        validate_experiment_payload(json.loads(json.dumps(payload)))

    def test_rejects_malformed_payloads(self):
        from repro.analysis.reporting import (
            experiment_payload,
            validate_experiment_payload,
        )

        good = experiment_payload("b", "t", ("h",), [(1,)])
        for mutation in (
            {"name": ""},
            {"headers": []},
            {"rows": [[1, 2]]},  # width mismatch
            {"rows": [[object()]]},
            {"schema_version": 999},
            {"meta": {"k": [1, 2]}},
            # peak_memory_bytes is optional but typed when present.
            {"meta": {"peak_memory_bytes": -1}},
            {"meta": {"peak_memory_bytes": 1.5}},
            {"meta": {"peak_memory_bytes": True}},
            {"meta": {"peak_memory_bytes": "12"}},
        ):
            bad = {**good, **mutation}
            with pytest.raises(ValueError):
                validate_experiment_payload(bad)

    def test_peak_memory_bytes_meta_accepted(self):
        from repro.analysis.reporting import experiment_payload

        payload = experiment_payload(
            "b", "t", ("h",), [(1,)], meta={"peak_memory_bytes": 0}
        )
        assert payload["meta"]["peak_memory_bytes"] == 0
        experiment_payload(
            "b", "t", ("h",), [(1,)],
            meta={"peak_memory_bytes": 123_456_789},
        )

    def test_rejects_non_scalar_cells_at_build(self):
        from repro.analysis.reporting import experiment_payload

        with pytest.raises(ValueError):
            experiment_payload("b", "t", ("h",), [({"nested": 1},)])


class TestRunnersProduceConsistentTables:
    """Each runner returns (headers, rows) with matching widths."""

    @pytest.mark.parametrize(
        "runner,kwargs",
        [
            (proof_generation_experiment, {"depths": (4,), "measure_r1cs": False}),
            (proof_verification_experiment, {"depths": (4,), "repetitions": 5}),
            (key_material_experiment, {}),
            (merkle_storage_experiment, {"depths": (4, 20), "populated_members": 8}),
            (gas_cost_experiment, {"member_counts": (0, 2), "depth": 4}),
            (nullifier_map_experiment, {"epochs": 6, "senders_per_epoch": 3}),
            (economics_experiment, {"spammer_count": 1, "peer_count": 6}),
            (epoch_length_ablation, {"epoch_lengths": (5.0, 10.0)}),
            (root_window_ablation, {"windows": (1, 2), "churn_events": 3}),
            (paper_reference_row, {}),
            (
                network_scaling_experiment,
                {"peer_counts": (8,), "messages": 2},
            ),
        ],
    )
    def test_shape(self, runner, kwargs):
        headers, rows = runner(**kwargs)
        assert len(headers) >= 2
        assert rows, f"{runner.__name__} produced no rows"
        for row in rows:
            assert len(row) == len(headers)
        # Formatting never crashes on the produced values.
        assert format_table(headers, rows)


class TestExperimentSemantics:
    def test_verification_constant_even_tiny(self):
        _, rows = proof_verification_experiment(depths=(4, 8), repetitions=20)
        measured = [row[3] for row in rows]
        assert max(measured) < 10 * min(measured) + 1e-3

    def test_gas_ratio_order_of_magnitude_small_config(self):
        _, rows = gas_cost_experiment(member_counts=(0,), depth=20)
        assert rows[0][5] > 10

    def test_economics_conserves_value(self):
        _, rows = economics_experiment(spammer_count=2, peer_count=8)
        values = {row[0]: row[1] for row in rows}
        assert (
            values["total burnt"] + values["total reporter rewards"]
            == values["total attacker loss"]
        )


class TestExperimentRowsPinned:
    """Rows the experiments produced when they hand-wired their own
    networks, before they ran as scenarios: the scenario path must
    reproduce them exactly."""

    def test_spam_protection_rln_and_plain_relay_rows(self):
        _, rows = spam_protection_experiment(peer_count=15, attack_epochs=2)
        assert rows[:2] == [
            ("Waku-RLN-Relay", 10, 28, 2.0, "yes (slashed + stake lost)"),
            ("plain relay (no protection)", 10, 140, 10.0, "no"),
        ]

    def test_economics_rows(self):
        _, rows = economics_experiment()
        values = {row[0]: row[1] for row in rows}
        assert values == {
            "stake per member": 10**18,
            "attackers": 3,
            "total attacker loss": 3 * 10**18,
            "total burnt": 15 * 10**17,
            "total reporter rewards": 15 * 10**17,
            "rewarded reporters": 2,
        }

    def test_network_scaling_rows(self):
        _, rows = network_scaling_experiment(peer_counts=(10, 40))
        assert rows == [
            (10, 2, 0.05795679901750568, 0.1100767902247448, "100.0%", 40.25),
            (
                40,
                4,
                0.10868468867897334,
                0.17533769649713565,
                "100.0%",
                156.25,
            ),
        ]
