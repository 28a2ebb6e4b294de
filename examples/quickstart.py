#!/usr/bin/env python
"""Quickstart: a 10-peer Waku-RLN-Relay network in ~40 lines.

Spins up the whole stack — simulated Ethereum chain, membership
registry contract, RLN trusted setup, GossipSub overlay — registers
every peer, publishes a message and shows it reaching everyone
anonymously.

Run:  python examples/quickstart.py
"""

from repro.core.protocol import WakuRlnRelayNetwork


def main() -> None:
    # One object assembles chain + contract + peers + overlay.
    net = WakuRlnRelayNetwork(peer_count=10, seed=7)

    # Every peer stakes 1 ETH and registers its identity commitment.
    net.register_all()
    print(f"registered members: {net.registered_count}")
    print(f"membership root:    {hex(int(net.peer(0).group.root))[:18]}…")

    # Record every delivery (note: handlers receive *no sender field* —
    # the network is anonymous by construction).
    deliveries = net.collect_deliveries()

    # Start gossip heartbeats, periodic group sync and the block miner.
    net.start()
    net.run(5.0)

    # Publish one rate-limited message from peer 3.
    msg_id = net.peer(3).publish(b"hello, spam-protected world!")
    print(f"published message:  {msg_id}")

    net.run(10.0)

    received = sum(
        1 for msgs in deliveries.values()
        if b"hello, spam-protected world!" in msgs
    )
    print(f"peers that received it: {received}/{len(net.peers)}")

    # The local rate limiter refuses a second message in the same epoch.
    try:
        net.peer(3).publish(b"a second message, same epoch")
    except Exception as exc:
        print(f"second publish in one epoch -> {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
