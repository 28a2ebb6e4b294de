"""Unit tests for the v1.1 peer-score function."""

import pytest

from repro.gossipsub.score import (
    PeerScoreParams,
    PeerScoreTracker,
    TopicScoreParams,
    strict_topic_params,
)

TOPIC = "t"


def make_tracker(**overrides):
    params = PeerScoreParams(
        default_topic_params=TopicScoreParams(**overrides)
    )
    tracker = PeerScoreTracker(params)
    tracker.add_peer("p")
    return tracker


class TestP1TimeInMesh:
    def test_accrues_while_in_mesh(self):
        tracker = make_tracker()
        tracker.graft("p", TOPIC, now=0.0)
        early = tracker.score("p", now=1.0)
        late = tracker.score("p", now=100.0)
        assert late > early > 0

    def test_capped(self):
        tracker = make_tracker(time_in_mesh_cap=10.0, time_in_mesh_weight=1.0)
        tracker.graft("p", TOPIC, now=0.0)
        assert tracker.score("p", now=1e6) == pytest.approx(10.0)

    def test_no_accrual_out_of_mesh(self):
        tracker = make_tracker()
        assert tracker.score("p", now=100.0) == 0.0


class TestP2FirstDeliveries:
    def test_rewards_first_deliveries(self):
        tracker = make_tracker()
        tracker.first_message("p", TOPIC)
        tracker.first_message("p", TOPIC)
        assert tracker.score("p") == pytest.approx(2.0)

    def test_capped(self):
        tracker = make_tracker(first_message_deliveries_cap=5.0)
        for _ in range(50):
            tracker.first_message("p", TOPIC)
        assert tracker.score("p") == pytest.approx(5.0)

    def test_decays(self):
        tracker = make_tracker(first_message_deliveries_decay=0.5)
        tracker.first_message("p", TOPIC)
        tracker.decay()
        assert tracker.score("p") == pytest.approx(0.5)

    def test_decay_to_zero_floor(self):
        tracker = make_tracker(first_message_deliveries_decay=0.5)
        tracker.first_message("p", TOPIC)
        for _ in range(10):
            tracker.decay()
        assert tracker.score("p") == 0.0


class TestP3MeshDeliveryDeficit:
    def _strict_tracker(self):
        params = PeerScoreParams(
            default_topic_params=strict_topic_params(5.0)
        )
        tracker = PeerScoreTracker(params)
        tracker.add_peer("p")
        return tracker

    def test_silent_mesh_peer_penalised_after_activation(self):
        tracker = self._strict_tracker()
        tracker.graft("p", TOPIC, now=0.0)
        # before activation window: no penalty
        assert tracker.score("p", now=1.0) >= 0
        # after activation with zero deliveries: squared deficit penalty
        assert tracker.score("p", now=10.0) < -20

    def test_active_mesh_peer_not_penalised(self):
        tracker = self._strict_tracker()
        tracker.graft("p", TOPIC, now=0.0)
        for _ in range(6):
            tracker.first_message("p", TOPIC)
        assert tracker.score("p", now=10.0) > 0

    def test_deficit_becomes_sticky_penalty_on_prune(self):
        tracker = self._strict_tracker()
        tracker.graft("p", TOPIC, now=0.0)
        tracker.prune("p", TOPIC, now=10.0)
        # P3b persists after leaving the mesh.
        assert tracker.score("p", now=10.0) < 0

    def test_default_params_do_not_punish_idle(self):
        tracker = make_tracker()
        tracker.graft("p", TOPIC, now=0.0)
        assert tracker.score("p", now=100.0) >= 0


class TestP4InvalidMessages:
    def test_squared_penalty(self):
        tracker = make_tracker()
        tracker.reject_message("p", TOPIC)
        one = tracker.score("p")
        tracker.reject_message("p", TOPIC)
        two = tracker.score("p")
        assert one == pytest.approx(-10.0)
        assert two == pytest.approx(-40.0)

    def test_decays_slowly(self):
        tracker = make_tracker()
        tracker.reject_message("p", TOPIC)
        tracker.decay()
        assert tracker.score("p") == pytest.approx(-8.1)


class TestP5AppSpecific:
    def test_app_score_added(self):
        tracker = make_tracker()
        tracker.set_app_score("p", 7.5)
        assert tracker.score("p") == pytest.approx(7.5)


class TestP6IpColocation:
    def test_shared_ip_penalised_quadratically(self):
        params = PeerScoreParams()
        tracker = PeerScoreTracker(params)
        for i in range(4):
            tracker.add_peer(f"bot{i}", ip="10.0.0.1")
        # threshold 1 -> excess 3 -> 9 * -5 = -45
        assert tracker.score("bot0") == pytest.approx(-45.0)

    def test_unique_ips_unpenalised(self):
        tracker = PeerScoreTracker(PeerScoreParams())
        tracker.add_peer("a", ip="10.0.0.1")
        tracker.add_peer("b", ip="10.0.0.2")
        assert tracker.score("a") == 0.0

    def test_set_ip_later(self):
        tracker = PeerScoreTracker(PeerScoreParams())
        tracker.add_peer("a")
        tracker.add_peer("b")
        tracker.set_ip("a", "1.1.1.1")
        tracker.set_ip("b", "1.1.1.1")
        assert tracker.score("a") < 0


class TestP7BehaviourPenalty:
    def test_quadratic_above_threshold(self):
        tracker = make_tracker()
        tracker.behaviour_penalty("p", 2.0)
        assert tracker.score("p") == pytest.approx(-40.0)

    def test_decays(self):
        tracker = make_tracker()
        tracker.behaviour_penalty("p", 2.0)
        for _ in range(600):
            tracker.decay()  # 0.99^600 * 2 falls below the zero floor
        assert tracker.score("p") == 0.0


class TestLifecycle:
    def test_unknown_peer_scores_zero(self):
        tracker = PeerScoreTracker(PeerScoreParams())
        assert tracker.score("ghost") == 0.0

    def test_per_topic_params_override(self):
        params = PeerScoreParams(
            topic_params={"special": TopicScoreParams(topic_weight=10.0)},
        )
        tracker = PeerScoreTracker(params)
        tracker.add_peer("p")
        tracker.first_message("p", "special")
        tracker.first_message("p", "normal")
        assert tracker.score("p") == pytest.approx(10.0 + 1.0)
