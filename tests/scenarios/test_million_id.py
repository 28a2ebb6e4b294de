"""million-id-city: pre-registered genesis identities end to end.

Tiny-scale versions of the scenario's acceptance claims: the dormant
population registers at genesis and is visible to every layer, the
sharded registry backs real traffic, and the bounded configuration's
memory does not grow with run length (the tier-1 flatness assert; the
full curve lives in ``benchmarks/bench_million_id.py``).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import WakuRlnRelayNetwork, genesis_commitments
from repro.errors import RegistrationError
from repro.scenarios.registry import scenario
from repro.scenarios.runner import run_scenario

CONFIG = ProtocolConfig(
    merkle_depth=8,
    membership_sub_depth=4,
    eager_nullifier_gc=True,
)


def _network(pre: int, peers: int = 6):
    return WakuRlnRelayNetwork(
        peer_count=peers,
        config=CONFIG,
        seed=5,
        pre_registered=pre,
    )


class TestPreRegisteredGenesis:
    def test_dormant_identities_visible_everywhere(self):
        net = _network(pre=100)
        net.register_all()
        for peer in net.peers:
            assert peer.group.member_count == 100 + len(net.peers)
            assert peer.is_registered
        # The contract agrees, and can address genesis members.
        assert net.contract.member_count() == 100 + len(net.peers)
        pks = genesis_commitments(100, seed=5)  # the network's seed
        assert net.contract.member_at(0) == pks[0]
        assert net.contract.is_member(pks[50])

    def test_genesis_members_exist_once(self, monkeypatch):
        # The contract's list, the seed event's payload and the tree's
        # compacted prefix are one object, sorted once per deployment.
        # The tree folds it and the buffer goes before the first peer
        # is built, so every layer reads it by its rule from then on.
        from repro.crypto.slot_index import PackedFieldList, SortedSlotIndex

        sorted_runs = []
        build = SortedSlotIndex.__init__

        def counting(index, values):
            sorted_runs.append(len(values))
            build(index, values)

        at_first_peer = []
        build_peer = WakuRlnRelayNetwork._build_peer

        def recording(net, node_id):
            if not at_first_peer:
                canon = net.membership_store.canonical()
                buffer = net.contract._genesis_pks._source.buffer
                at_first_peer.append((canon.genesis_version, buffer))
            return build_peer(net, node_id)

        monkeypatch.setattr(SortedSlotIndex, "__init__", counting)
        monkeypatch.setattr(WakuRlnRelayNetwork, "_build_peer", recording)
        net = _network(pre=100)
        net.register_all()
        announced = net.chain.event_log[0].args["pks"]
        canon = net.membership_store.canonical()
        assert isinstance(announced, PackedFieldList)
        assert net.contract._genesis_pks is announced
        assert canon.genesis_members is announced
        assert at_first_peer == [(canon.genesis_version, None)]
        assert canon.genesis_version == 100 - CONFIG.root_window
        source = announced._source
        assert source.buffer is None
        chunks = canon._sub_leaves[: canon.genesis_version >> canon.sub_depth]
        assert chunks and all(c._source is source for c in chunks)
        expected = genesis_commitments(100, seed=5)
        assert tuple(announced) == tuple(expected)
        for slot in (0, 17, 99):
            pk = expected[slot]
            assert net.contract.member_at(slot) == pk
            assert net.contract.is_member(pk)
            assert canon.node_at(0, slot, canon.version) == pk
            assert canon.find_leaf_at(pk, canon.version) == slot
        assert not net.contract.is_member(12345)
        assert net.membership_store.stats()["index_bytes"] == 8 * 100
        assert sorted_runs == [100]
        # The reference peer's sync matched the folded batch whole, as
        # the replica that would have applied it: nothing deduped yet.
        assert net.membership_store.stats()["events_deduped"] == 0

    def test_live_peers_get_slots_after_the_dormant_block(self):
        net = _network(pre=40, peers=4)
        net.register_all()
        indices = sorted(
            net.membership_store.canonical().find_leaf_at(
                peer.commitment.element._value,
                net.membership_store.canonical().version,
            )
            for peer in net.peers
        )
        assert indices == [40, 41, 42, 43]

    def test_traffic_flows_over_pre_registered_group(self):
        net = _network(pre=60)
        net.register_all()
        deliveries = net.collect_deliveries()
        net.start()
        net.run(3.0)  # let the gossip mesh form
        net.peers[0].publish(b"hello over a pre-seeded group")
        net.run(5.0)
        received = sum(
            1
            for payloads in deliveries.values()
            if b"hello over a pre-seeded group" in payloads
        )
        assert received >= len(net.peers) - 1

    def test_capacity_guard(self):
        with pytest.raises(RegistrationError):
            _network(pre=2**8 - 3, peers=6)  # 253 + 6 > 256

    def test_genesis_member_slashable(self):
        # A genesis member whose secret leaks is slashable like any
        # other: the contract tombstones its immutable slot. Uses a
        # crafted genesis list whose sk we know (the derived-commitment
        # lists have no published secrets).
        from repro.crypto.field import Fr
        from repro.crypto.hashing import hash1
        from repro.eth.chain import Blockchain
        from repro.eth.contracts import MembershipRegistry

        secret = 424242
        leaked_pk = int(hash1(Fr(secret)))
        pks = (leaked_pk, *genesis_commitments(5, seed=9))
        contract = MembershipRegistry("m", stake_wei=10**18)
        chain = Blockchain()
        chain.deploy(contract)
        contract.genesis_register(pks)
        chain.create_account("reporter", balance=10**18)
        assert contract.is_member(leaked_pk)
        assert chain.call_now("reporter", "m", "slash", secret).success
        assert not contract.is_member(leaked_pk)
        assert contract.member_at(0) == 0  # tombstoned, not reordered
        assert contract.member_at(1) == pks[1]
        # Double-slash of the same genesis slot reverts.
        receipt = chain.call_now("reporter", "m", "slash", secret)
        assert not receipt.success
        assert "unknown member" in receipt.error


class TestScenarioRegistration:
    def test_million_id_city_spec_flags(self):
        spec = scenario("million-id-city")
        assert spec.pre_registered == 950_000
        assert spec.streaming_metrics
        assert spec.config_overrides["membership_sub_depth"] == 10
        assert spec.config_overrides["eager_nullifier_gc"] is True
        capacity = 2 ** spec.config_overrides["merkle_depth"]
        assert spec.pre_registered + spec.peers < capacity

    def test_scaled_spec_scales_the_dormant_population(self):
        spec = scenario("million-id-city")
        tiny = spec.scaled(peers=50)
        assert tiny.pre_registered == round(950_000 * 50 / 50_000)
        assert tiny.streaming_metrics

    def test_tiny_run_reports_bounded_state_extras(self):
        result = run_scenario(
            scenario("million-id-city"), peers=15, duration=20.0
        )
        assert "membership_subtrees_materialized" in result.extras
        assert "nullifier_entries_pruned" in result.extras
        assert "nullifier_entries_live" in result.extras
        # A depth-20 registry over ~300 identities must not have built
        # more than a handful of its 1024 sub-trees.
        assert result.extras["membership_subtrees_materialized"] <= 4


class TestMemoryFlatness:
    def test_peak_memory_flat_in_run_length(self):
        """tracemalloc peak after N epochs vs 2N stays within tolerance.

        Bounded state (epoch-grid GC + streaming metrics) means run
        length buys epochs, not memory. Construction dominates the
        peak and bounded per-peer caches are still warming at this
        scale, so the tolerance is generous; the full-scale growth
        curve (and the truly-unbounded nullifier contrast) lives in
        ``benchmarks/bench_million_id.py`` / ``bench_paper_claims`` (E9).
        """
        spec = scenario("million-id-city")

        def peak_for(duration: float) -> int:
            gc.collect()
            tracemalloc.start()
            run_scenario(spec, peers=12, duration=duration)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        peak_for(10.0)  # warm import/alloc caches outside measurement
        short = peak_for(10.0)
        long = peak_for(20.0)
        assert long < 1.5 * short
