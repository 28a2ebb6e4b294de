"""Integration tests for the delegated-enforcement watchtower service:
detection, submission, reward splitting, crash/restart recovery and
competing-watchtower races on a full simulated deployment."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import WakuRlnRelayNetwork
from repro.core.validator import ValidationOutcome
from repro.waku.message import DEFAULT_PUBSUB_TOPIC
from repro.watchtower.service import WatchtowerService
from repro.watchtower.store import WatchtowerStore


def build_net(seed=42, peers=12):
    net = WakuRlnRelayNetwork(
        peer_count=peers, seed=seed, block_interval=5.0
    )
    net.register_all()
    return net


def make_service(net, tmp_path, service_id="wt-0", **kwargs):
    return WatchtowerService(
        net,
        service_id,
        store_path=str(tmp_path / f"{service_id}.sqlite"),
        **kwargs,
    )


def delegate(service, peer):
    """Enroll ``peer`` with ``service`` as the scenario runner does."""
    service.delegate_id(peer.node_id, peer.account)
    peer.disable_slash_reporting()


def delegate_all(service, net):
    for peer in net.peers:
        delegate(service, peer)


def schedule_spam(net, at, peer_index=0):
    """One double-signal burst from ``peer_index`` at sim time ``at``."""

    def fire(_sim):
        spammer = net.peer(peer_index)
        spammer.publish(b"spam-1")
        spammer.publish(b"spam-2", bypass_rate_limit=True)

    net.simulator.schedule(at, fire, label="test-spam")


def slashed_pks(net):
    return {
        e.args["pk"]
        for e in net.chain.events_since(0)
        if e.name == "MemberRemoved"
    }


def economics(summary):
    """The bit-exact integer keys the equivalence criterion compares."""
    return {
        k: summary[k]
        for k in (
            "rewards_wei",
            "paid_out_wei",
            "kept_wei",
            "fees_wei",
            "slashes_won",
            "lost_races",
            "detected",
        )
    }


class TestDelegatedEnforcement:
    def test_watchtower_slashes_on_behalf_of_delegators(self, tmp_path):
        net = build_net()
        service = make_service(net, tmp_path)
        service.start()
        delegate_all(service, net)
        net.start()
        schedule_spam(net, at=5.0)
        net.run(40.0)
        service.stop()

        spammer = net.peer(0)
        assert not net.contract.is_member(int(spammer.commitment.element))
        # Delegators turned their own reporting off — every slash tx
        # came from the service.
        assert sum(p.slashes_submitted for p in net.peers) == 0
        summary = service.summary()
        assert summary["detected"] == 1
        assert summary["submitted"] == 1
        assert summary["slashes_won"] == 1
        assert summary["pending"] == 0

    def test_reward_split_is_exact(self, tmp_path):
        net = build_net()
        fee = 10**15
        service = make_service(
            net, tmp_path, reward_cut=0.25, delegation_fee_wei=fee
        )
        service.start()
        delegate_all(service, net)
        net.start()
        schedule_spam(net, at=5.0)
        net.run(40.0)
        service.stop()

        summary = service.summary()
        stake = net.config.stake_wei
        reward = stake - int(stake * net.contract.burn_fraction)
        kept = int(reward * 0.25)
        share = (reward - kept) // len(net.peers)
        assert summary["rewards_wei"] == reward
        assert summary["paid_out_wei"] == share * len(net.peers)
        assert summary["kept_wei"] == reward - share * len(net.peers)
        assert summary["fees_wei"] == fee * len(net.peers)
        # Balance conservation: the service holds fees + kept rewards.
        assert service.balance == summary["fees_wei"] + summary["kept_wei"]

    def test_delegation_fee_flows_to_service(self, tmp_path):
        net = build_net()
        service = make_service(net, tmp_path, delegation_fee_wei=10**15)
        service.start()
        peer = net.peer(3)
        before = peer.balance
        delegate(service, peer)
        assert peer.balance == before - 10**15
        assert service.balance == 10**15
        assert service.store.delegation_count() == 1

    def test_eager_nullifier_gc_prunes_on_the_epoch_grid(self, tmp_path):
        """The watchtower runs the routers' validator stack, so it
        honours ``eager_nullifier_gc`` as every router does: a signal
        for a new latest epoch drops the buckets more than ``thr``
        behind it at once, with no housekeeping tick in between."""
        net = WakuRlnRelayNetwork(
            peer_count=6,
            seed=42,
            block_interval=5.0,
            config=ProtocolConfig(eager_nullifier_gc=True),
        )
        net.register_all()
        service = make_service(net, tmp_path)
        service.start()
        net.run(5 * net.config.epoch_length)
        router = net.peer(5).validator
        tower = service._validators[DEFAULT_PUBSUB_TOPIC]
        now, thr = tower.epoch_tracker.current_epoch, net.config.thr
        # The oldest epoch still in the window, then a new latest one
        # more than thr ahead of it.
        signals = [
            peer.prover.create_signal(
                b"m", epoch, peer.group.merkle_proof(peer.leaf_index)
            ).to_bytes()
            for peer, epoch in zip(net.peers, (now - thr, now + 1))
        ]
        for validator in (router, tower):
            for raw in signals:
                report = validator.validate_bytes(raw)
                assert report.outcome is ValidationOutcome.RELAY
            assert validator.nullifier_map.epochs() == [now + 1]
            assert validator.nullifier_map.auto_pruned_entries == 1


class TestCrashRecovery:
    def run_once(self, tmp_path, name, crash_at=None, restart_at=None):
        """One seed-matched deployment, optionally with a fault."""
        net = build_net(seed=7)
        service = make_service(net, tmp_path, service_id=name)
        service.start()
        delegate_all(service, net)
        net.start()
        schedule_spam(net, at=5.0)
        if crash_at is not None:
            net.simulator.schedule(
                crash_at, lambda _sim: service.crash(), label="crash"
            )
            net.simulator.schedule(
                restart_at, lambda _sim: service.restart(), label="restart"
            )
        net.run(60.0)
        service.stop()
        return net, service

    def test_crash_restart_matches_uninterrupted_run(self, tmp_path):
        """The acceptance criterion: a service crashed mid-run and
        restarted from its SQLite store ends with the same slashed
        identity set and bit-identical economics as the same seed run
        without the fault."""
        net_a, svc_a = self.run_once(tmp_path, "uninterrupted")
        net_b, svc_b = self.run_once(
            tmp_path, "crashed", crash_at=8.0, restart_at=20.0
        )
        assert svc_b.crashes == 1
        assert slashed_pks(net_a) == slashed_pks(net_b)
        assert len(slashed_pks(net_b)) == 1
        assert economics(svc_a.summary()) == economics(svc_b.summary())
        assert svc_a.summary()["slashes_won"] == 1
        svc_a.close()
        svc_b.close()

    def test_submitted_tx_mines_while_down(self, tmp_path):
        """Crash after the slash tx entered the mempool but before the
        block sealed: the tx mines while the service is down, and the
        restart replay resolves it from the receipt — no resubmission,
        no reverted duplicate."""
        net, service = self.run_once(
            tmp_path, "down-at-mining", crash_at=9.0, restart_at=20.0
        )
        summary = service.summary()
        assert summary["slashes_won"] == 1
        assert summary["submitted"] == 1  # exactly one tx, ever
        reverted = [
            r
            for r in net.chain.receipts.values()
            if r.error == "unknown member"
        ]
        assert reverted == []

    def test_pending_evidence_resubmitted_exactly_once(self, tmp_path):
        """Crash in the window between detection and the enforcement
        tick: the evidence is persisted but unsubmitted. The restart
        must submit it (once), and recovery time covers the wait for
        the confirming block."""
        net = build_net(seed=7)
        # A long sync interval keeps the first enforcement tick far
        # out, so the crash provably lands before any submission.
        service = make_service(
            net, tmp_path, service_id="slow-tick", sync_interval=40.0
        )
        service.start()
        delegate_all(service, net)
        net.start()
        schedule_spam(net, at=5.0)
        net.simulator.schedule(
            6.0, lambda _sim: service.crash(), label="crash"
        )
        net.run(8.0)
        # Precondition: detection happened, submission did not.
        probe = WatchtowerStore(service.store.path)
        assert [status for status in probe.evidence_counts()] == ["pending"]
        probe.close()
        service.restart()
        net.run(52.0)
        service.stop()
        summary = service.summary()
        assert summary["slashes_won"] == 1
        assert summary["submitted"] == 1
        assert summary["recovery_time"] > 0.0
        assert len(slashed_pks(net)) == 1

    def test_membership_catch_up_after_downtime(self, tmp_path):
        """Events emitted while the service is down are replayed on
        restart from the committed cursor (which sat exactly at the
        log boundary when the crash hit)."""
        net = build_net(seed=11)
        service = make_service(net, tmp_path, service_id="catch-up")
        service.start()
        delegate_all(service, net)
        net.start()
        net.run(6.0)
        service.crash()
        boundary = len(net.chain.event_log)
        # Committed cursor sat exactly at the head of the log.
        probe = WatchtowerStore(service.store.path)
        assert probe.cursor() == boundary
        probe.close()
        # A peer joins while the watchtower is down.
        joiner = net.add_peer()
        net.run(10.0)
        assert len(net.chain.event_log) > boundary
        replayed_before = service.replayed_events
        service.restart()
        missed = len(net.chain.event_log) - boundary
        assert service.replayed_events == replayed_before + missed
        assert service.group.contains(joiner.commitment)
        assert service._cursor.log_index == len(net.chain.event_log)
        net.run(10.0)
        service.stop()

    def test_nullifier_state_survives_crash(self, tmp_path):
        """A double-signal split across the crash — first share seen
        before the crash, second after the restart — is still
        detected: the restart reseeds its nullifier maps from the
        persisted signals.

        The second share is handed straight to the service's validator
        (routers drop recognised doubles one hop out, so the mesh
        would not reliably carry it to the tower)."""
        from repro.waku.message import DEFAULT_PUBSUB_TOPIC, WakuMessage

        net = build_net(seed=5)
        service = make_service(net, tmp_path, service_id="split-signal")
        service.start()
        delegate_all(service, net)
        net.start()
        net.simulator.schedule(
            5.0, lambda _sim: net.peer(0).publish(b"first"), label="a"
        )
        net.run(7.0)
        # The tower relayed and persisted the first share, then dies.
        assert len(service.store.signals()) == 1
        service.crash()
        service.restart()
        spammer = net.peer(0)
        epoch = int(5.0 // net.config.epoch_length)
        second = spammer.prover.create_signal(
            b"the-double",
            epoch,
            spammer.group.merkle_proof(spammer.leaf_index),
        )
        service._validate(
            DEFAULT_PUBSUB_TOPIC,
            WakuMessage(
                payload=b"the-double",
                rate_limit_proof=second.to_bytes(),
            ),
        )
        net.run(33.0)
        service.stop()
        summary = service.summary()
        assert summary["detected"] == 1
        assert summary["slashes_won"] == 1
        assert len(slashed_pks(net)) == 1


class TestCompetingWatchtowers:
    def run_race(self, tmp_path, tag=""):
        net = build_net(seed=3)
        first = make_service(net, tmp_path, service_id=f"wt-a{tag}")
        second = make_service(net, tmp_path, service_id=f"wt-b{tag}")
        first.start()
        second.start()
        for index, peer in enumerate(net.peers):
            delegate(first if index % 2 == 0 else second, peer)
        net.start()
        schedule_spam(net, at=5.0)
        net.run(40.0)
        first.stop()
        second.stop()
        return net, first, second

    def test_exactly_one_successful_slash_per_offender(self, tmp_path):
        net, first, second = self.run_race(tmp_path)
        sa, sb = first.summary(), second.summary()
        assert len(slashed_pks(net)) == 1
        # Both detected and raced; the contract let exactly one win.
        assert sa["detected"] == sb["detected"] == 1
        assert sa["slashes_won"] + sb["slashes_won"] == 1
        assert sa["lost_races"] + sb["lost_races"] == 1
        # The whole reward went to the winner.
        stake = net.config.stake_wei
        reward = stake - int(stake * net.contract.burn_fraction)
        assert sa["rewards_wei"] + sb["rewards_wei"] == reward
        loser = sa if sa["slashes_won"] == 0 else sb
        assert loser["rewards_wei"] == 0
        assert loser["paid_out_wei"] == 0

    def test_race_outcome_is_deterministic(self, tmp_path):
        run1 = tmp_path / "run1"
        run2 = tmp_path / "run2"
        run1.mkdir()
        run2.mkdir()
        _, a1, b1 = self.run_race(run1)
        _, a2, b2 = self.run_race(run2)
        assert a1.summary() == a2.summary()
        assert b1.summary() == b2.summary()


class TestLifecycleGuards:
    def test_double_start_rejected(self, tmp_path):
        from repro.errors import SimulationError

        net = build_net(seed=1, peers=6)
        service = make_service(net, tmp_path)
        service.start()
        with pytest.raises(SimulationError):
            service.start()

    def test_crash_when_down_is_noop(self, tmp_path):
        net = build_net(seed=1, peers=6)
        service = make_service(net, tmp_path)
        service.start()
        service.crash()
        service.crash()
        assert service.crashes == 1

    def test_bad_reward_cut_rejected(self, tmp_path):
        from repro.errors import SimulationError

        net = build_net(seed=1, peers=6)
        with pytest.raises(SimulationError):
            make_service(net, tmp_path, reward_cut=1.5)
