"""Ablations of the design choices DESIGN.md §5 calls out: epoch
length, root window, flood-publish, mesh degree."""

from repro.analysis.ablations import (
    epoch_length_ablation,
    flood_publish_ablation,
    mesh_degree_ablation,
    root_window_ablation,
)


def test_regenerate_epoch_length_ablation(record_table):
    headers, rows = epoch_length_ablation()
    record_table(
        "ablation_epoch_length",
        "Ablation: epoch length T (D = 20 s fixed)",
        headers,
        rows,
        note=(
            "shorter epochs raise honest throughput but grow the epoch\n"
            "acceptance window Thr = D/T and the nullifier-map footprint."
        ),
    )
    thr = [row[1] for row in rows]
    throughput = [row[2] for row in rows]
    assert thr == sorted(thr, reverse=True)
    assert throughput == sorted(throughput, reverse=True)


def test_regenerate_root_window_ablation(record_table):
    headers, rows = root_window_ablation(windows=(1, 2, 4, 8))
    record_table(
        "ablation_root_window",
        "Ablation: router root-window vs proof staleness",
        headers,
        rows,
        note=(
            "window w accepts proofs up to w-1 membership events stale;\n"
            "window 1 drops every in-flight proof that raced a registration."
        ),
    )
    by_window = {row[0]: row[1:] for row in rows}
    # Window 1: only perfectly fresh proofs pass.
    assert by_window[1][0] == "accept"
    assert all(v == "drop" for v in by_window[1][1:])
    # Window 8 tolerates all tested staleness levels.
    assert all(v == "accept" for v in by_window[8])
    # Monotone: larger windows accept at least as much.
    accepted = {w: sum(1 for v in vals if v == "accept")
                for w, vals in by_window.items()}
    windows = sorted(accepted)
    assert all(
        accepted[a] <= accepted[b]
        for a, b in zip(windows, windows[1:])
    )


def test_regenerate_flood_publish_ablation(record_table):
    headers, rows = flood_publish_ablation(peer_count=30)
    record_table(
        "ablation_flood_publish",
        "Ablation: flood-publish vs mesh-only publishing",
        headers,
        rows,
    )
    flood, mesh_only = rows
    assert flood[1] <= mesh_only[1] * 1.5  # flood at least as fast
    assert flood[1] > 0 and mesh_only[1] > 0


def test_regenerate_mesh_degree_ablation(record_table):
    headers, rows = mesh_degree_ablation(degrees=(3, 6, 10))
    record_table(
        "ablation_mesh_degree",
        "Ablation: mesh degree D (mesh-only publishing)",
        headers,
        rows,
        note="denser meshes trade duplicate traffic for latency.",
    )
    assert all(row[1] > 0 for row in rows)


def test_epoch_ablation_cost(benchmark):
    benchmark(epoch_length_ablation)
