"""Network-size scaling sweep: latency grows like the overlay diameter
(O(log N)), coverage stays complete — the gossip scalability story the
paper's open-network setting depends on."""

from repro.analysis.scaling import network_scaling_experiment
from repro.core.protocol import WakuRlnRelayNetwork


def test_simulation_cost_scales(benchmark):
    """Wall-clock of building + settling a 40-peer deployment."""

    def build():
        net = WakuRlnRelayNetwork(peer_count=40, seed=51, degree=6)
        net.register_all()
        net.start()
        net.run(5.0)
        return net

    net = benchmark.pedantic(build, rounds=3, iterations=1)
    assert net.registered_count == 40


def test_regenerate_scaling_table(record_table, bench_scale):
    headers, rows = network_scaling_experiment(
        peer_counts=bench_scale.n((10, 20, 40, 80), (10, 20))
    )
    record_table(
        "scaling_network_size",
        "Scaling: propagation vs network size (degree-6 overlay)",
        headers,
        rows,
        note="latency should track the diameter (log N), not N.",
    )
    latencies = [row[2] for row in rows]
    sizes = [row[0] for row in rows]
    if not bench_scale.quick:
        # Sub-linear growth: 8x the peers costs far less than 8x latency.
        assert latencies[-1] < latencies[0] * (sizes[-1] / sizes[0]) / 2
    # Full coverage at every size.
    assert all(row[4] == "100.0%" for row in rows)
