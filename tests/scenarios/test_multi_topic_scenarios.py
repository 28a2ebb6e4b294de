"""Multi-topic scenario harness: spec validation, per-topic RLN
semantics and topic-aware runs."""

from __future__ import annotations

import pytest

from repro.core.peer import topic_domain
from repro.core.protocol import WakuRlnRelayNetwork
from repro.errors import RateLimitError, ScenarioError
from repro.scenarios.registry import scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    AdversaryGroup,
    AdversaryMix,
    ScenarioSpec,
    TopicSpec,
    TrafficModel,
)
from repro.waku.message import DEFAULT_PUBSUB_TOPIC

MARKET = "/waku/2/market/proto"
CHAT = "/waku/2/chat/proto"


class TestTopicSpecValidation:
    def test_primary_topic_cannot_be_listed(self):
        with pytest.raises(ScenarioError):
            TopicSpec(DEFAULT_PUBSUB_TOPIC)

    def test_negative_weight_rejected(self):
        with pytest.raises(ScenarioError):
            TopicSpec(MARKET, traffic_weight=-1.0)

    def test_subscribe_fraction_bounds(self):
        with pytest.raises(ScenarioError):
            TopicSpec(MARKET, subscribe_fraction=1.5)

    def test_duplicate_topic_names_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="dup",
                description="",
                topics=(TopicSpec(MARKET), TopicSpec(MARKET)),
            )

    def test_adversary_target_must_be_rln_topic(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="bad-target",
                description="",
                topics=(TopicSpec(MARKET, rln_protected=False),),
                adversaries=AdversaryMix(
                    groups=(
                        AdversaryGroup(
                            strategy="burst-flood",
                            target_topics=(MARKET,),
                        ),
                    )
                ),
            )

    def test_burst_spread_too_thin_over_targets_rejected(self):
        """A burst round-robined over more targets than messages never
        violates any per-topic rate limit — reject the spec early."""
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="thin-burst",
                description="",
                topics=(TopicSpec(MARKET), TopicSpec(CHAT)),
                adversaries=AdversaryMix(
                    groups=(
                        AdversaryGroup(
                            strategy="burst-flood",
                            burst=2,
                            target_topics=(MARKET, CHAT),
                        ),
                    )
                ),
            )

    def test_primary_topic_always_targetable(self):
        spec = ScenarioSpec(
            name="primary-target",
            description="",
            adversaries=AdversaryMix(
                groups=(
                    AdversaryGroup(
                        strategy="burst-flood",
                        target_topics=(DEFAULT_PUBSUB_TOPIC,),
                    ),
                )
            ),
        )
        assert spec.topic_names == (DEFAULT_PUBSUB_TOPIC,)

    def test_topic_names_primary_first(self):
        spec = ScenarioSpec(
            name="names",
            description="",
            topics=(TopicSpec(MARKET), TopicSpec(CHAT)),
        )
        assert spec.topic_names == (DEFAULT_PUBSUB_TOPIC, MARKET, CHAT)


class TestPerTopicRln:
    """One RLN group per topic (paper §III) on the integrated peer."""

    @pytest.fixture(scope="class")
    def net(self):
        net = WakuRlnRelayNetwork(peer_count=6, seed=42)
        for peer in net.peers:
            peer.join_rln_topic(MARKET)
        net.register_all()
        net.start()
        net.run(3.0)
        return net

    def test_rate_limits_are_per_topic(self, net):
        """One message per epoch *per topic*: a second publish in the
        same epoch is legal on another topic, illegal on the same."""
        publisher = net.peer(0)
        publisher.publish(b"on primary")
        publisher.publish(b"on market", pubsub_topic=MARKET)
        with pytest.raises(RateLimitError):
            publisher.publish(b"again on market", pubsub_topic=MARKET)
        with pytest.raises(RateLimitError):
            publisher.publish(b"again on primary")

    def test_cross_topic_replay_rejected(self, net):
        """A valid signal replayed onto a different topic must fail:
        the external nullifier is domain-bound per topic, and the
        shared verification cache must not leak the other topic's
        verdict."""
        from repro.rln.signal import RlnSignal
        from repro.rln.verifier import SignalCheck

        publisher, router = net.peer(1), net.peer(2)
        net.run(net.config.epoch_length)  # fresh epoch
        epoch = publisher.epoch_tracker.current_epoch
        signal = publisher.prover.create_signal(
            message=b"market msg",
            epoch=epoch,
            merkle_proof=publisher.group.merkle_proof(
                publisher.leaf_index
            ),
            domain=topic_domain(net.config, MARKET),
        )
        raw = signal.to_bytes()
        market_verifier = router.rln_topics[MARKET].verifier
        primary_verifier = router.rln_topics[
            router.relay.pubsub_topic
        ].verifier
        parsed = RlnSignal.from_bytes(raw)
        # Legitimate topic: valid (and now cached network-wide).
        assert market_verifier.check(parsed) is SignalCheck.VALID
        # Replay on the primary topic: wrong domain, cache or not.
        assert (
            primary_verifier.check(parsed)
            is SignalCheck.BAD_EXTERNAL_NULLIFIER
        )

    def test_double_signal_on_secondary_topic_slashes(self, net):
        """Spamming a secondary RLN topic produces the same slashing
        path as the primary one (shared membership stake)."""
        spammer = net.peer(3)
        net.run(net.config.epoch_length)
        spammer.publish(b"s1", pubsub_topic=MARKET, bypass_rate_limit=True)
        spammer.publish(b"s2", pubsub_topic=MARKET, bypass_rate_limit=True)
        net.run(30.0)
        assert not spammer.is_registered  # slashed out of the group


class TestMultiTopicScenarioRuns:
    def test_multi_topic_churn_smoke_has_per_topic_results(self):
        result = run_scenario(
            scenario("multi-topic-churn"), peers=20, duration=40.0
        )
        assert set(result.topics) == set(
            scenario("multi-topic-churn").topic_names
        )
        market = result.topics[MARKET]
        # The adversary targets the market topic; its spam must land
        # there and nowhere else.
        assert market["spam_delivered"] > 0
        others = [
            stats["spam_delivered"]
            for name, stats in result.topics.items()
            if name != MARKET
        ]
        assert all(v == 0 for v in others)
        # Every topic with subscribers saw its honest traffic delivered.
        for name, stats in result.topics.items():
            if stats["honest_published"]:
                assert stats["honest_delivered"] > 0

    def test_multi_topic_5k_profile_smokes_tiny(self):
        result = run_scenario(
            scenario("multi-topic-5k"), peers=25, duration=40.0
        )
        assert result.members_slashed > 0
        assert result.delivery_rate > 0.5

    def test_multi_topic_runs_are_deterministic(self):
        first = run_scenario(
            scenario("multi-topic-churn"), peers=20, duration=40.0
        )
        second = run_scenario(
            scenario("multi-topic-churn"), peers=20, duration=40.0
        )
        assert first.fingerprint() == second.fingerprint()

    def test_open_topic_carries_unprotected_traffic(self):
        """An rln_protected=False topic relays proofless messages."""
        spec = ScenarioSpec(
            name="open-topic-run",
            description="one open side topic",
            peers=15,
            duration=30.0,
            traffic=TrafficModel(
                messages_per_epoch=1.0, active_fraction=0.5
            ),
            topics=(
                TopicSpec(
                    "/waku/2/free/proto",
                    traffic_weight=2.0,
                    rln_protected=False,
                ),
            ),
        )
        result = run_scenario(spec)
        free = result.topics["/waku/2/free/proto"]
        assert free["honest_published"] > 0
        assert free["honest_delivered"] > 0

    @pytest.mark.slow
    def test_multi_topic_5k_full_scale(self):
        """The acceptance profile: 5000 peers, six topics, completes
        with healthy delivery and active enforcement."""
        result = run_scenario(scenario("multi-topic-5k"))
        assert result.peers_started == 5000
        assert result.delivery_rate > 0.5
        assert result.members_slashed > 0
