"""Mid-run registrations against the replica-clone bootstrap fast path.

``register_all`` (and now ``add_peer``) bootstrap peers by cloning an
up-to-date replica instead of replaying the event log. These are the
regression tests that the clone is a genuine snapshot — not a live
alias — and that state adopted from it never goes *stale*: a rotated
identity registering after bootstrap must reach every router's root
window, and a peer adopting a post-slash replica must not keep claiming
its zeroed leaf.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.core.protocol import WakuRlnRelayNetwork

CONFIG = ProtocolConfig(verification_cache_size=4096)


def _network(peers: int = 6, seed: int = 9) -> WakuRlnRelayNetwork:
    net = WakuRlnRelayNetwork(
        peer_count=peers,
        config=CONFIG,
        seed=seed,
        degree=None,
        block_interval=2.0,
    )
    net.register_all()
    return net


def test_adopt_sync_state_clears_stale_leaf_after_slash():
    """Regression: a slashed peer adopting a newer replica used to keep
    its pre-slash ``leaf_index`` and believe it was still registered —
    the clone went stale the moment the chain moved on."""
    net = _network()
    victim, reporter, reference = net.peers[2], net.peers[0], net.peers[1]
    net.chain.call_now(
        reporter.account,
        net.contract.address,
        "slash",
        int(victim.keypair.secret.element),
    )
    reference.sync()
    assert victim.is_registered  # its own replica hasn't seen the slash
    victim.adopt_sync_state(reference)
    assert not victim.group.contains(victim.commitment)
    assert victim.leaf_index is None
    assert not victim.is_registered


def test_adopt_sync_state_still_finds_own_leaf():
    """The fix must not break the normal bootstrap: a registered peer
    adopting a replica keeps (re-derives) its slot."""
    net = _network()
    reference, peer = net.peers[0], net.peers[3]
    expected = peer.leaf_index
    assert expected is not None
    peer.adopt_sync_state(reference)
    assert peer.leaf_index == expected


def test_rotated_registration_after_bootstrap_reaches_every_router():
    """A commitment registered *after* the replica-clone bootstrap —
    here via slash-then-rotate — must propagate its Merkle root to
    every router, clones included."""
    net = _network(peers=8)
    net.start()
    net.run(2.0)
    spammer = net.peers[-1]
    for i in range(3):
        spammer.publish(f"SPAM|{i}".encode(), bypass_rate_limit=True)
    net.run(10.0)  # slashed on-chain, removal synced network-wide
    assert not spammer.is_registered

    spammer.rotate_identity()
    net.run(10.0)  # registration mined; every replica applies it
    assert spammer.is_registered

    newest_root = spammer.group.root
    for peer in net.peers:
        assert peer.group.is_acceptable_root(newest_root), (
            f"{peer.node_id} never picked up the rotated registration"
        )
        assert peer.group.contains(spammer.commitment)

    deliveries = net.collect_deliveries()
    spammer.publish(b"MSG|post-rotation")
    net.run(5.0)
    received = sum(
        1
        for msgs in deliveries.values()
        if any(m.startswith(b"MSG|post-rotation") for m in msgs)
    )
    assert received == len(net.peers)


def test_add_peer_replica_bootstrap_matches_replay():
    """The mid-run join fast path adopts a clone; its outcome must be
    byte-identical with a fresh replica replaying the full event log."""
    net = _network(seed=31)
    net.start()
    net.run(5.0)
    newcomer = net.add_peer()
    net.run(20.0)  # registration mined + everyone synced
    assert newcomer.is_registered
    # The replay oracle: a fresh replica applies the whole log.
    replay = net.membership_store.local_group()
    for event in net.chain.event_log:
        replay.apply_event(event)
    assert newcomer.leaf_index == replay.index_of(newcomer.commitment)
    assert newcomer.group.root == replay.root
    assert newcomer.group.recent_roots() == replay.recent_roots()
    assert newcomer.group.applied_events == replay.applied_events
    # The fast path skipped the genesis replay but still converged with
    # the incumbents.
    assert newcomer.group.root == net.peers[0].group.root


def test_unplanned_windowed_join_fails_without_side_effects():
    import pytest

    from repro.errors import NetworkError

    net = WakuRlnRelayNetwork(
        peer_count=6, config=CONFIG, seed=9, shards=2, parallel=True
    )
    index_before = net._next_peer_index
    peers_before = len(net.peers)
    with pytest.raises(NetworkError, match="planned node_id"):
        net.add_peer()  # a windowed join needs its node_id and dial list
    # The failed join left nothing behind: no phantom peer, no index
    # burn, no dangling overlay links.
    assert net._next_peer_index == index_before
    assert len(net.peers) == peers_before
    assert f"peer-{index_before}" not in net.network._nodes


def test_add_peer_replica_clone_is_independent_of_reference():
    """Mutating the reference replica after the join must not leak into
    the newcomer (the clone is a snapshot, not an alias)."""
    net = _network()
    net.start()
    net.run(2.0)
    reference = max(net.peers, key=lambda p: p._synced_log_index)
    newcomer = net.add_peer(register=False)
    root_before = newcomer.group.root
    # Drive the reference ahead: a new member registers and only the
    # reference syncs it.
    extra = net.add_peer(register=True, start=False)
    net.chain.mine_block(timestamp=net.simulator.now)
    reference.sync()
    assert reference.group.root != root_before
    assert newcomer.group.root == root_before
    del extra
