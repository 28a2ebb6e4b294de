"""Unit-level tests of WakuRlnRelayPeer behaviours not covered by the
end-to-end suite: sync edge cases, clock skew, churned publishers."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import WakuRlnRelayNetwork
from repro.errors import RateLimitError


@pytest.fixture
def net():
    network = WakuRlnRelayNetwork(peer_count=6, seed=77)
    network.register_all()
    network.start()
    network.run(2.0)
    return network


class TestSync:
    def test_sync_is_idempotent(self, net):
        peer = net.peer(0)
        assert peer.sync() == 0  # everything already applied
        assert peer.sync() == 0

    def test_sync_applies_only_membership_events(self, net):
        """Foreign contract events must not disturb the tree."""
        from repro.eth.chain import Contract

        class Noisy(Contract):
            def ping(self, ctx):
                ctx.emit("Pinged", value=1)

        net.chain.deploy(Noisy("noisy"))
        net.chain.call_now(net.peer(0).account, "noisy", "ping")
        root_before = int(net.peer(0).group.root)
        applied = net.peer(0).sync()
        assert applied == 0
        assert int(net.peer(0).group.root) == root_before

    def test_peer_learns_its_own_slashing(self, net):
        spammer = net.peer(1)
        spammer.publish(b"a")
        spammer.publish(b"b", bypass_rate_limit=True)
        net.run(30.0)
        assert spammer.leaf_index is None
        assert not spammer.is_registered

    def test_sequential_registration_indices(self, net):
        indices = sorted(p.leaf_index for p in net.peers)
        assert indices == list(range(len(net.peers)))


class TestRateLimiting:
    def test_rate_limit_error_carries_epoch(self, net):
        peer = net.peer(2)
        peer.publish(b"one")
        with pytest.raises(RateLimitError) as exc_info:
            peer.publish(b"two")
        assert exc_info.value.epoch == peer.epoch_tracker.current_epoch

    def test_bypass_flag_defeats_local_check_only(self, net):
        """bypass_rate_limit skips the LOCAL limiter; the NETWORK still
        catches the double-signal (that is the whole point)."""
        peer = net.peer(3)
        peer.publish(b"x")
        peer.publish(b"y", bypass_rate_limit=True)  # no local exception
        net.run(30.0)
        assert not peer.is_registered  # but the network slashed it


class TestClockSkew:
    def test_skewed_publisher_rejected_beyond_thr(self):
        config = ProtocolConfig(epoch_length=5.0, max_network_delay=10.0)
        net = WakuRlnRelayNetwork(peer_count=5, seed=78, config=config)
        # Replace one peer's tracker with a heavily skewed clock.
        net.register_all()
        deliveries = net.collect_deliveries()
        net.start()
        net.run(30.0)
        skewed = net.peer(0)
        skewed.epoch_tracker.clock_skew = 100.0  # 20 epochs ahead
        skewed.publish(b"from the future")
        net.run(10.0)
        others = {
            k: v for k, v in deliveries.items() if k != skewed.node_id
        }
        assert all(b"from the future" not in msgs for msgs in others.values())

    def test_small_skew_tolerated(self):
        config = ProtocolConfig(epoch_length=5.0, max_network_delay=10.0)
        net = WakuRlnRelayNetwork(peer_count=5, seed=79, config=config)
        net.register_all()
        deliveries = net.collect_deliveries()
        net.start()
        net.run(30.0)
        skewed = net.peer(0)
        skewed.epoch_tracker.clock_skew = config.epoch_length  # 1 epoch
        skewed.publish(b"slightly ahead")
        net.run(10.0)
        delivered = sum(
            1
            for k, v in deliveries.items()
            if k != skewed.node_id and b"slightly ahead" in v
        )
        assert delivered == 4


class TestValidatorWiring:
    def test_message_without_proof_not_delivered(self, net):
        """A WakuMessage lacking the RLN field is rejected by routers."""
        from repro.waku.message import WakuMessage

        deliveries = net.collect_deliveries()
        net.peer(0).relay.publish(WakuMessage(payload=b"proofless"))
        net.run(5.0)
        others = {
            k: v for k, v in deliveries.items() if k != net.peer(0).node_id
        }
        assert all(b"proofless" not in msgs for msgs in others.values())

    def test_forwarder_of_invalid_proof_penalised(self, net):
        """Routers REJECT bad proofs, so gossipsub applies P4 to the
        hop that forwarded them."""
        from repro.waku.message import WakuMessage

        origin = net.peer(0)
        origin.relay.publish(
            WakuMessage(payload=b"junk", rate_limit_proof=b"\x00" * 300)
        )
        net.run(5.0)
        neighbor_ids = net.network.neighbors(origin.node_id)
        scores = [
            net.peer(int(nid.split("-")[1]))
            .relay.router.scores.score(origin.node_id, net.simulator.now)
            for nid in neighbor_ids
        ]
        assert any(score < 0 for score in scores)
