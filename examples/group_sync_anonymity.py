#!/usr/bin/env python
"""Group synchronization and anonymity demo.

Two properties of Section III are shown here:

* **Group sync** — a peer that registers later catches up from the
  contract's event log and converges on the same membership root; a
  publisher proving against a *slightly stale* root is still accepted
  (routers keep a window of recent roots).
* **Anonymity** — the wire encoding of a signal contains neither the
  sender's key material nor its tree position, and two different
  members' signals are structurally indistinguishable.

Run:  python examples/group_sync_anonymity.py
"""

from repro.core.peer import WakuRlnRelayPeer
from repro.core.protocol import WakuRlnRelayNetwork
from repro.rln.signal import RlnSignal
from repro.waku.message import WakuMessage


def main() -> None:
    net = WakuRlnRelayNetwork(peer_count=8, seed=5)
    net.register_all()
    net.start()
    net.run(2.0)

    # --- group synchronization -------------------------------------------
    print("== group synchronization ==")
    late = WakuRlnRelayPeer(
        node_id="latecomer",
        network=net.network,
        chain=net.chain,
        contract_address=net.contract.address,
        config=net.config,
        proving_key=net.proving_key,
        verifying_key=net.verifying_key,
        rng=net.simulator.rng,
    )
    for neighbor in net.peers[:3]:
        net.network.connect("latecomer", neighbor.node_id)
    late.register()
    net.chain.mine_block(timestamp=net.simulator.now)
    late.sync()
    for peer in net.peers:
        peer.sync()
    same_root = int(late.group.root) == int(net.peer(0).group.root)
    print(f"latecomer registered at leaf {late.leaf_index}; "
          f"root agrees with network: {same_root}")

    # Stale-root tolerance: capture a proof, let the group change, publish.
    publisher = net.peer(2)
    stale_proof = publisher.group.merkle_proof(publisher.leaf_index)
    signal = publisher.prover.create_signal(
        b"proved against yesterday's root",
        publisher.epoch_tracker.current_epoch,
        stale_proof,
    )
    router = net.peer(4)
    outcome = router.validator.validate(signal)
    print(f"signal proved against pre-latecomer root -> {outcome.outcome.value}")

    # --- anonymity ----------------------------------------------------------
    print("\n== anonymity ==")
    alice, bob = net.peer(0), net.peer(1)
    sig_a = alice.prover.create_signal(
        b"the same payload", 42, alice.group.merkle_proof(alice.leaf_index)
    )
    sig_b = bob.prover.create_signal(
        b"the same payload", 42, bob.group.merkle_proof(bob.leaf_index)
    )
    wire_a, wire_b = sig_a.to_bytes(), sig_b.to_bytes()
    print(f"signal sizes identical:        {len(wire_a) == len(wire_b)}")
    leaks = (
        alice.keypair.secret.to_bytes() in wire_a
        or alice.keypair.commitment.to_bytes() in wire_a
    )
    print(f"sender key material on wire:   {leaks}")
    message = WakuMessage(payload=b"x", rate_limit_proof=wire_a)
    fields = sorted(WakuMessage.__dataclass_fields__)
    print(f"WakuMessage fields:            {fields}  (no sender, no signature)")
    decoded = RlnSignal.from_bytes(message.rate_limit_proof)
    print(f"nullifier reveals member? it is H(H(sk,epoch)) = "
          f"{hex(int(decoded.internal_nullifier))[:14]}… (one-way)")


if __name__ == "__main__":
    main()
