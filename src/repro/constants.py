"""Protocol-wide constants.

Values that the paper fixes (or that are fixed by the Ethereum / BN254 /
Waku ecosystems the paper builds on) live here so every subsystem agrees
on them.
"""

from __future__ import annotations

#: BN254 (alt_bn128) scalar-field modulus; the field of Poseidon, the
#: membership tree, nullifiers and Shamir shares in the RLN construction.
BN254_SCALAR_FIELD = (
    21888242871839275222246405745257275088548364400416034343698204186575808495617
)

#: Default depth of the RLN membership Merkle tree. The paper quotes the
#: storage figures for a depth-20 tree and proof timing for 2**32 members
#: (depth 32).
DEFAULT_MERKLE_DEPTH = 20

#: Default epoch length T in seconds (the external nullifier is
#: ``epoch = unix_time // EPOCH_LENGTH_SECONDS``).
DEFAULT_EPOCH_LENGTH_SECONDS = 10.0

#: Default maximum network delay D in seconds, used to derive the epoch
#: acceptance threshold Thr = D / T from Section III of the paper.
DEFAULT_MAX_NETWORK_DELAY_SECONDS = 20.0

#: Default membership stake (in wei) that the contract requires.
DEFAULT_MEMBERSHIP_STAKE_WEI = 10**18  # 1 ether

#: Fraction of a slashed member's stake that is burnt; the remainder is
#: paid to whoever submitted the slashing transaction.
DEFAULT_SLASH_BURN_FRACTION = 0.5

#: Serialized size, in bytes, of an identity secret or commitment (§IV:
#: "Each peer persists a 32B public and secret keys").
KEY_SIZE_BYTES = 32

#: Modeled size of the Groth16 prover key reported by the paper (§IV).
PROVER_KEY_SIZE_BYTES = int(3.89 * 1024 * 1024)

#: Groth16 proofs are three group elements: 2 x G1 (64 B) + 1 x G2 (128 B)
#: when uncompressed on BN254; 128 B compressed. We model the compressed
#: form.
PROOF_SIZE_BYTES = 128

#: Paper-reported proof generation latency (seconds) on an iPhone 8 for a
#: group of 2**32 members (§IV). The performance model scales this with
#: tree depth.
PAPER_PROOF_GENERATION_SECONDS = 0.5
PAPER_PROOF_GENERATION_DEPTH = 32

#: Paper-reported constant verification latency (seconds) (§IV).
PAPER_PROOF_VERIFICATION_SECONDS = 0.030

#: Paper-reported storage for a depth-20 membership tree: 67 MB naive
#: versus 0.128 KB with the optimization of reference [9] (§IV).
PAPER_FULL_TREE_STORAGE_BYTES = 67_000_000
PAPER_OPTIMIZED_TREE_STORAGE_BYTES = 128

#: Ethereum mainnet average block interval (seconds), used by the
#: propagation-speed comparison (messages "must be mined" on-chain).
ETH_BLOCK_INTERVAL_SECONDS = 13.0

#: Payload prefix of every adversary agent's spam; the scenario runner's
#: delivery classifier tells spam from honest traffic by it.
SPAM_MARKER = b"SPAM"
