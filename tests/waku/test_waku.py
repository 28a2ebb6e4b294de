"""Tests for WakuMessage and the Waku-Relay layer."""

import pytest

from repro.errors import SerializationError
from repro.gossipsub.router import ValidationResult
from repro.net.network import Network
from repro.net.topology import connect_full_mesh
from repro.sim.latency import LatencyModel
from repro.sim.simulator import Simulator
from repro.waku.message import (
    DEFAULT_PUBSUB_TOPIC,
    WakuMessage,
    decode_envelope,
)
from repro.waku.relay import WakuRelayNode


class TestWakuMessage:
    def test_roundtrip(self):
        message = WakuMessage(payload=b"hello", content_topic="/a/1/b/c")
        assert WakuMessage.from_bytes(message.to_bytes()) == message

    def test_roundtrip_with_proof(self):
        message = WakuMessage(payload=b"hi", rate_limit_proof=b"\x01" * 300)
        decoded = WakuMessage.from_bytes(message.to_bytes())
        assert decoded.rate_limit_proof == b"\x01" * 300

    def test_empty_proof_decodes_to_none(self):
        message = WakuMessage(payload=b"x")
        assert WakuMessage.from_bytes(message.to_bytes()).rate_limit_proof is None

    def test_empty_proof_is_no_proof(self):
        message = WakuMessage(payload=b"x", rate_limit_proof=b"")
        assert message.rate_limit_proof is None
        assert message == WakuMessage(payload=b"x")
        assert WakuMessage.from_bytes(message.to_bytes()) == message

    def test_trailing_bytes_rejected(self):
        data = WakuMessage(payload=b"x").to_bytes() + b"!"
        with pytest.raises(SerializationError, match="trailing bytes"):
            WakuMessage.from_bytes(data)

    def test_truncated_rejected(self):
        data = WakuMessage(payload=b"abcdef").to_bytes()[:-3]
        with pytest.raises(SerializationError, match="truncated"):
            WakuMessage.from_bytes(data)

    @pytest.mark.parametrize(
        "keep, field",
        [(0, "content_topic"), (2, "content_topic"), (12, "content_topic"),
         (13, "payload"), (20, "payload"), (-3, "proof"), (-1, "proof")],
    )
    def test_truncation_names_the_cut_field(self, keep, field):
        data = WakuMessage(
            payload=b"abcdef", content_topic="/a/1/b/c\u00e9"
        ).to_bytes()[:keep]
        with pytest.raises(SerializationError, match=f"truncated.*{field}"):
            WakuMessage.from_bytes(data)

    def test_invalid_utf8_topic_rejected(self):
        data = bytearray(WakuMessage(payload=b"x").to_bytes())
        data[3] = 0xFF
        with pytest.raises(SerializationError, match="malformed"):
            WakuMessage.from_bytes(bytes(data))

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"version": 256}, "version 256"),
            ({"version": -1}, "version -1"),
            ({"content_topic": "t" * 65536}, "content_topic length 65536"),
        ],
    )
    def test_unencodable_field_is_a_typed_error(self, fields, named):
        message = WakuMessage(payload=b"x", **fields)
        with pytest.raises(SerializationError, match=named):
            message.to_bytes()

    @pytest.mark.parametrize("field", ["payload", "rate_limit_proof"])
    def test_four_gib_field_is_a_typed_error(self, field):
        class FourGiB(bytes):
            def __len__(self):
                return 1 << 32

        message = WakuMessage(**{"payload": b"x", field: FourGiB(b"y")})
        with pytest.raises(SerializationError, match=f"{field} length"):
            message.to_bytes()

    def test_contains_no_sender_fields(self):
        """Anonymity by omission: the dataclass has no sender slot."""
        fields = set(WakuMessage.__dataclass_fields__)
        assert fields == {
            "payload", "content_topic", "version", "rate_limit_proof"
        }


def build_relay_network(n=5, seed=1):
    sim = Simulator(seed=seed)
    network = Network(simulator=sim, latency=LatencyModel(base_seconds=0.02))
    nodes = [WakuRelayNode(f"w{i}", network) for i in range(n)]
    connect_full_mesh(network, [n.node_id for n in nodes])
    for node in nodes:
        node.start()
    sim.run_for(3.0)
    return sim, network, nodes


class TestWakuRelay:
    def test_publish_reaches_all(self):
        sim, network, nodes = build_relay_network()
        got = {}
        for node in nodes:
            node.on_message(
                lambda msg, mid, nid=node.node_id: got.setdefault(nid, msg)
            )
        nodes[0].publish(WakuMessage(payload=b"waku!"))
        sim.run_for(5.0)
        assert set(got) == {n.node_id for n in nodes}
        assert all(m.payload == b"waku!" for m in got.values())

    def test_handler_gets_no_sender_information(self):
        sim, network, nodes = build_relay_network(3)
        seen_args = []
        nodes[1].on_message(lambda *args: seen_args.append(args))
        nodes[0].publish(WakuMessage(payload=b"anon"))
        sim.run_for(3.0)
        assert len(seen_args) == 1
        message, msg_id = seen_args[0]
        assert isinstance(message, WakuMessage)
        assert isinstance(msg_id, str)

    def test_validator_rejects(self):
        sim, network, nodes = build_relay_network()
        for node in nodes:
            node.add_validator(
                lambda _topic, msg: ValidationResult.REJECT
                if msg.payload.startswith(b"bad")
                else ValidationResult.ACCEPT
            )
        got = []
        for node in nodes[1:]:
            node.on_message(lambda msg, mid: got.append(msg.payload))
        nodes[0].publish(WakuMessage(payload=b"bad stuff"))
        nodes[0].publish(WakuMessage(payload=b"good stuff"))
        sim.run_for(5.0)
        assert got == [b"good stuff"] * (len(nodes) - 1)

    def test_undecodable_payload_rejected(self):
        sim, network, nodes = build_relay_network(2)
        got = []
        nodes[1].on_message(lambda msg, mid: got.append(msg))
        # Bypass the Waku layer and publish garbage bytes directly.
        nodes[0].router.publish(DEFAULT_PUBSUB_TOPIC, b"\xff\xfe")
        sim.run_for(3.0)
        assert got == []

    def test_malformed_payload_parsed_once_rejected_by_every_receiver(
        self, monkeypatch
    ):
        sim, network, nodes = build_relay_network(6)
        garbage = b"\x01\x00\x05never a whole envelope"
        parsed = []
        original = WakuMessage.from_bytes.__func__

        def counting(cls, data):
            parsed.append(data)
            return original(cls, data)

        monkeypatch.setattr(WakuMessage, "from_bytes", classmethod(counting))
        decode_envelope.cache_clear()
        delivered = []
        for node in nodes:
            node.on_message(lambda msg, mid: delivered.append(msg))
        nodes[0].router.publish(DEFAULT_PUBSUB_TOPIC, garbage)
        sim.run_for(3.0)
        # One REJECT per receiver (the counters are network-wide), each
        # charged to the publisher's score.
        assert network.metrics.counters["gossipsub.rejected"] == 5
        for node in nodes[1:]:
            assert node.router.scores.score(nodes[0].node_id, sim.now) < 0
        for node in nodes:
            assert (
                node._validate(DEFAULT_PUBSUB_TOPIC, garbage, "prev-hop")
                is ValidationResult.REJECT
            )
        assert parsed == [garbage]
        assert delivered == []

    def test_peers_share_one_envelope_per_message(self):
        sim, network, nodes = build_relay_network(4)
        got = []
        for node in nodes[1:]:
            node.on_message(lambda msg, mid: got.append(msg))
        sent = WakuMessage(payload=b"one copy", rate_limit_proof=b"\x02" * 64)
        nodes[0].publish(sent)
        sim.run_for(3.0)
        assert len(got) == 3
        assert got[0] == sent
        assert all(message is got[0] for message in got)

    def test_standalone_node_decodes_without_a_deployment(self):
        node = WakuRelayNode("solo", Network(simulator=Simulator(seed=3)))
        seen = []
        node.add_validator(
            lambda _topic, msg: seen.append(msg) or ValidationResult.ACCEPT
        )
        node.on_topic_message(lambda topic, msg, mid: seen.append(msg))
        topic = DEFAULT_PUBSUB_TOPIC
        raw = WakuMessage(payload=b"solo").to_bytes()
        accept = node._validate(topic, raw, "prev-hop")
        assert accept is ValidationResult.ACCEPT
        node._on_delivery(topic, raw, "id", "prev-hop")
        assert seen == [WakuMessage(payload=b"solo")] * 2
        assert seen[0] is seen[1]
        reject = node._validate(topic, raw[:-1], "prev-hop")
        assert reject is ValidationResult.REJECT

    def test_default_pubsub_topic(self):
        sim, network, nodes = build_relay_network(2)
        assert nodes[0].pubsub_topic == DEFAULT_PUBSUB_TOPIC
        assert DEFAULT_PUBSUB_TOPIC in nodes[0].router.subscriptions
