"""repro — a reproduction of Waku-RLN-Relay (ICDCS 2022).

Privacy-preserving, spam-protected, gossip-based routing: an anonymous
GossipSub overlay where every member may publish one message per epoch,
enforced by Rate-Limiting Nullifiers (RLN) with zkSNARK membership
proofs and on-chain economic slashing.

Package ``__init__`` modules hold only their docstring: every symbol is
imported from the module that defines it, so a run loads only the
modules it executes. Entry points:

* :mod:`repro.core.protocol` — ``WakuRlnRelayNetwork``, the integrated
  network (peers in :mod:`repro.core.peer`);
* :mod:`repro.scenarios.spec`, :mod:`repro.scenarios.registry`,
  :mod:`repro.scenarios.runner` — declare, look up and run a scenario
  (``ScenarioSpec``, ``scenario``, ``run_scenario``);
* :mod:`repro.rln.prover` / :mod:`repro.rln.verifier` — RLN signals
  and their checks; :mod:`repro.rln.membership` — the group;
* :mod:`repro.crypto.hashing`, :mod:`repro.crypto.merkle`,
  :mod:`repro.crypto.shamir`, :mod:`repro.crypto.zksnark.groth16` —
  the cryptographic substrate;
* :mod:`repro.eth.chain` / :mod:`repro.eth.contracts` — simulated
  blockchain and membership contracts;
* :mod:`repro.gossipsub.router` / :mod:`repro.waku.relay` — the
  routing substrate;
* :mod:`repro.baselines.relay_baselines`, :mod:`repro.baselines.pow` —
  comparison systems;
* ``python -m repro.analysis`` — the experiment harness (one module per
  family under :mod:`repro.analysis`).
"""

__version__ = "1.0.0"
