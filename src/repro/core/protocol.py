"""Whole-network harness: chain + contract + peers + overlay + miner.

:class:`WakuRlnRelayNetwork` assembles everything a simulation needs —
used by the integration tests, the examples and every benchmark. The
flow matches the paper's deployment story:

1. deploy the membership registry contract;
2. create peers, each with an Ethereum account and an RLN credential;
3. peers submit registration transactions; a miner process seals blocks
   every ``block_interval`` simulated seconds; peers pick up the
   emitted events and converge on the same membership tree;
4. the GossipSub overlay is wired (random-regular by default) and
   heartbeats start;
5. peers publish; routers validate; spammers get slashed.
"""

from __future__ import annotations

from mmap import mmap
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional

from ..constants import ETH_BLOCK_INTERVAL_SECONDS
from ..crypto.digests import blake2b
from ..crypto.hashing import BULK_CHUNK, blake2b_digests_int
from ..crypto.keys import IdentityCommitment, MembershipKeyPair
from ..crypto.slot_index import PackedFieldList
from ..errors import NetworkError, RegistrationError
from ..eth.chain import Blockchain
from ..eth.contracts import MembershipRegistry
from ..net.network import Network, NodeId
from ..net.topology import connect_full_mesh, connect_random_regular
from ..rln.membership import MembershipStore
from ..rln.prover import rln_keys
from ..rln.verifier import BarrierMemoCache, VerificationCache
from ..sim.latency import DEFAULT_LATENCY, LatencyModel
from ..sim.metrics import MetricsRegistry
from ..sim.simulator import Simulator
from .config import ProtocolConfig
from .peer import WakuRlnRelayPeer

CONTRACT_ADDRESS = "contract:membership"


def genesis_commitments(count: int, seed: int = 0) -> PackedFieldList:
    """Deterministic identity commitments for a genesis member list.

    Dormant identities never publish, so they need no key material —
    only distinct non-zero field elements for the membership leaves.
    Derived with blake2b directly (not the configured circuit hash):
    the genesis list is deployment *data*, and a million-entry list
    must not cost a million poseidon permutations under the slow
    backend nor perturb ``hash_call_count`` accounting. Packed as it
    is derived: the list never exists as a million ``int`` objects.
    Member ``i`` is ``blake2b(b"genesis-member:<seed>:<i>")`` reduced
    into the field (0 becomes 1), hashed a chunk at a time from copies
    of one state that has already absorbed the prefix. The list keeps
    that rule, so it can drop its buffer and re-derive what it reads.
    The buffer is an anonymous mapping, unmapped when dropped (a freed
    16 MB heap block would raise glibc's mmap threshold instead).
    """
    keyed = blake2b(b"genesis-member:%d:" % seed, digest_size=32)

    def chunks(first: int, stop: int) -> Iterator[bytes]:
        for start in range(first, stop, BULK_CHUNK):
            end = min(start + BULK_CHUNK, stop)
            names = list(map(b"%d".__mod__, range(start, end)))
            values = blake2b_digests_int(keyed, names)
            yield b"".join([(v or 1).to_bytes(32, "big") for v in values])

    packed = mmap(-1, 32 * count) if count else b""
    for chunk in chunks(0, count):
        packed.write(chunk)
    return PackedFieldList(packed, rule=lambda *span: b"".join(chunks(*span)))


class WakuRlnRelayNetwork:
    """A ready-to-run Waku-RLN-Relay deployment in one object."""

    def __init__(
        self,
        peer_count: int,
        config: Optional[ProtocolConfig] = None,
        seed: int = 0,
        degree: Optional[int] = 6,
        latency: Optional[LatencyModel] = None,
        block_interval: float = ETH_BLOCK_INTERVAL_SECONDS,
        shards: int = 1,
        parallel: bool = False,
        shard_pins: Optional[Dict[str, int]] = None,
        pre_registered: int = 0,
        owned_shards: Optional[FrozenSet[int]] = None,
    ) -> None:
        self.config = config or ProtocolConfig()
        self.pre_registered = pre_registered
        self.parallel = parallel
        if owned_shards is not None and not parallel:
            raise NetworkError("owned_shards requires parallel mode")
        latency = latency or DEFAULT_LATENCY
        peer_ids = [f"peer-{i}" for i in range(peer_count)]
        if parallel:
            from ..sim.parallel_stack import ShardPlan, WindowedStackSimulator

            # Window-isolated kernel: per-entity order keys and RNG
            # streams, barrier windows bounded by the minimum latency,
            # ports for cross-worker delivery. Results are invariant
            # in shards *and* workers (the test matrix pins this) but
            # intentionally a distinct mode from the serial kernel:
            # per-entity streams change individual draws.
            window = latency.min_latency()
            if window <= 0:
                raise NetworkError(
                    "parallel mode needs a positive barrier window; "
                    f"{type(latency).__name__} has no usable minimum "
                    "latency bound"
                )
            plan = ShardPlan(shards, keys=peer_ids, pins=shard_pins)
            self.simulator: Simulator = WindowedStackSimulator(
                seed=seed, plan=plan, window=window
            )
            if owned_shards is not None:
                # Build-per-worker: narrow ownership *before* any
                # entity exists, so this worker only constructs (and
                # schedules for) the shards it owns; every other
                # roster entry becomes a ghost below.
                self.simulator.restrict_to(frozenset(owned_shards))
        else:
            # ``shards`` partitions only the windowed kernel: one
            # serial heap runs every shard in the same global order.
            self.simulator = Simulator(seed=seed)
        self.metrics: MetricsRegistry
        self.network = Network(
            simulator=self.simulator,
            latency=latency,
        )
        self.metrics = self.network.metrics
        self.chain = Blockchain(block_interval=block_interval)
        contract = MembershipRegistry(
            CONTRACT_ADDRESS,
            stake_wei=self.config.stake_wei,
            burn_fraction=self.config.burn_fraction,
        )
        self.contract = self.chain.deploy(contract)
        #: Deployment-wide shared membership-tree store: every replica
        #: is a view of one canonical tree per domain.
        self.membership_store = MembershipStore(
            self.config.merkle_depth,
            self.config.root_window,
            sub_depth=self.config.membership_sub_depth,
        )
        if pre_registered:
            # Genesis member list: identities registered at deploy time
            # (the "huge membership, small active set" regime the paper
            # targets). Baked into the contract state and announced to
            # peers with one batch seed event, which replicas apply via
            # the tree's bulk-build path instead of a per-identity
            # event replay.
            if pre_registered + peer_count > self.config.group_capacity:
                raise RegistrationError(
                    f"{pre_registered} genesis + {peer_count} peer "
                    f"registrations exceed the depth-"
                    f"{self.config.merkle_depth} group capacity "
                    f"({self.config.group_capacity})"
                )
            # The tree folds the list, which drops its buffer before the
            # contract sorts the index on the kept top words (and checks
            # for zero and repeated keys): the two never share the heap.
            pks = genesis_commitments(pre_registered, seed)
            canon = self.membership_store.canonical(self.config.domain or "")
            canon.apply_batch(pks, self.config.root_window)
            pks.release()
            contract.genesis_register(pks)
            self.chain.seed_event(
                CONTRACT_ADDRESS, "MembersRegistered", pks=pks
            )

        proving_key, verifying_key = rln_keys(seed=seed.to_bytes(8, "big"))
        self.proving_key = proving_key
        self.verifying_key = verifying_key
        #: Deployment-wide proof-verification memo (None = naive mode).
        #: Parallel mode shares a :class:`BarrierMemoCache` instead of
        #: the plain LRU: reads see only the last barrier's committed
        #: snapshot and writes merge deterministically at barriers, so
        #: the hit pattern — and every downstream counter — is
        #: invariant in the shard/worker layout.
        self.verification_cache = None
        if self.config.verification_cache_size > 0:
            if parallel:
                self.verification_cache = BarrierMemoCache(
                    self.config.verification_cache_size,
                    key_source=self.simulator.consume_order_key,
                )
            else:
                self.verification_cache = VerificationCache(
                    self.config.verification_cache_size
                )

        self._degree = degree
        self._next_peer_index = peer_count
        self.departed: List[WakuRlnRelayPeer] = []
        self._peer_added_callbacks: List[
            Callable[[WakuRlnRelayPeer], None]
        ] = []
        #: Every peer id of the deployment, build order — identical on
        #: every worker even when only a subset is materialized.
        self.roster: List[NodeId] = list(peer_ids)
        #: Commitments of roster entries owned by other workers: their
        #: registrations must still hit this worker's chain replica.
        self._ghost_commitments: Dict[NodeId, IdentityCommitment] = {}
        self._peer_by_id: Dict[NodeId, WakuRlnRelayPeer] = {}
        self.peers: List[WakuRlnRelayPeer] = []
        if parallel:
            plan = self.simulator.plan
            owned = self.simulator.owned
            for node_id in self.roster:
                if plan.shard_of(node_id) in owned:
                    # Scheduling done while constructing an entity (and
                    # none happens today, but e.g. a future handshake
                    # would) must key on the entity, not on how many
                    # peers this worker happened to build before it.
                    with self.simulator.build_context(node_id):
                        self._materialize_peer(node_id)
                else:
                    self.declare_ghost(node_id)
        else:
            for node_id in self.roster:
                self._materialize_peer(node_id)
        ids = self.roster
        if degree is None or peer_count <= degree + 1:
            connect_full_mesh(self.network, ids)
        else:
            if (peer_count * degree) % 2:
                degree += 1
            connect_random_regular(self.network, ids, degree, seed=seed)
        self._miner_cancel: Optional[Callable[[], None]] = None

    def _materialize_peer(self, node_id: NodeId) -> WakuRlnRelayPeer:
        peer = self._build_peer(node_id)
        self.peers.append(peer)
        self._peer_by_id[node_id] = peer
        return peer

    def peer_named(self, node_id: NodeId) -> Optional[WakuRlnRelayPeer]:
        """The live peer object for ``node_id``, or None when this
        worker holds only its ghost (build-per-worker)."""
        return self._peer_by_id.get(node_id)

    def declare_ghost(self, node_id: NodeId) -> None:
        """Declare a roster entry that lives on another worker.

        The ghost's first identity draw, Ethereum account and overlay
        endpoint are reproduced exactly as its owner creates them —
        per-entity RNG streams make the commitment bit-identical — so
        this worker's chain replica and topology agree with every
        other worker's without holding the peer's protocol stack.
        """
        keypair = MembershipKeyPair.generate(
            self.simulator.entity_rng(node_id)
        )
        self._ghost_commitments[node_id] = keypair.commitment
        self.chain.create_account(
            f"eoa:{node_id}", self.config.stake_wei * 2
        )
        self.network.attach_remote(node_id)

    def _build_peer(self, node_id: NodeId) -> WakuRlnRelayPeer:
        # Identity material comes from the peer's entity stream (the
        # shared one on the serial kernel): a worker that never builds
        # this peer can still reproduce its commitment (declare_ghost)
        # bit-for-bit.
        return WakuRlnRelayPeer(
            node_id=node_id,
            network=self.network,
            chain=self.chain,
            contract_address=CONTRACT_ADDRESS,
            config=self.config,
            proving_key=self.proving_key,
            verifying_key=self.verifying_key,
            rng=self.simulator.entity_rng(node_id),
            verification_cache=self.verification_cache,
            membership_store=self.membership_store,
        )

    # -- churn ------------------------------------------------------------------

    def on_peer_added(
        self, callback: Callable[[WakuRlnRelayPeer], None]
    ) -> None:
        """Observe peers joining mid-run (e.g. to attach recorders)."""
        self._peer_added_callbacks.append(callback)

    def add_peer(
        self,
        register: bool = True,
        start: bool = True,
        node_id: Optional[NodeId] = None,
        neighbors: Optional[List[NodeId]] = None,
    ) -> WakuRlnRelayPeer:
        """Join a fresh peer mid-simulation (churn model).

        The newcomer dials ``degree`` random live peers, optionally
        submits its registration transaction (mined with the next
        block), and starts relaying. A serial join adopts the
        most-synced incumbent's membership replica — the same clone
        fast path ``register_all`` uses — and only replays events newer
        than that.

        ``node_id``/``neighbors`` let a precomputed churn plan pin the
        identity and dial list; parallel mode requires both (the plan
        computes them from shared per-entity streams so every worker
        agrees), and its joiner replays the full event log: "most-synced
        incumbent" is a partition-dependent choice, the log is not.
        """
        if self.parallel and (node_id is None or neighbors is None):
            raise NetworkError(
                "parallel churn joins need a planned node_id and "
                "dial list (see the scenario runner's churn plan)"
            )
        if node_id is None:
            node_id = f"peer-{self._next_peer_index}"
            self._next_peer_index += 1
        peer = self._build_peer(node_id)
        if neighbors is None:
            rng = self.simulator.rng
            alive = [p.node_id for p in self.peers]
            fanout = (
                self._degree if self._degree is not None else len(alive)
            )
            neighbors = rng.sample(alive, min(fanout, len(alive)))
        for neighbor in neighbors:
            self.network.connect(peer.node_id, neighbor)
        if not self.parallel and self.peers:
            reference = max(
                self.peers, key=lambda p: p._synced_log_index
            )
            peer.adopt_sync_state(reference)
        self.peers.append(peer)
        self._peer_by_id[peer.node_id] = peer
        if register:
            peer.register()
        if start:
            peer.start()
        for callback in self._peer_added_callbacks:
            callback(peer)
        return peer

    def remove_peer(self, node_id: NodeId) -> WakuRlnRelayPeer:
        """Churn a peer out: stop its tasks and drop it (and its links)
        from the network. Its stake stays locked in the contract."""
        index = next(
            (i for i, p in enumerate(self.peers) if p.node_id == node_id),
            None,
        )
        if index is None:
            raise NetworkError(f"no live peer named {node_id!r} to remove")
        peer = self.peers.pop(index)
        self._peer_by_id.pop(node_id, None)
        peer.stop()
        self.network.detach(node_id)
        self.departed.append(peer)
        return peer

    # -- deployment steps -------------------------------------------------------

    def register_all(self) -> None:
        """Register every roster entry and settle the transactions.

        One reference peer replays the event log; the rest adopt its
        replica (group sync is deterministic, so the outcome is
        identical), turning bootstrap from O(peers^2) tree insertions
        into one sync plus O(peers) state copies.

        Ghost entries (roster peers owned by another worker) submit
        the very transaction their owner submits — same sender, same
        commitment, same position in the roster order — so every
        worker's chain converges on an identical pre-drive state.
        """
        now = self.simulator.now
        for node_id in self.roster:
            peer = self._peer_by_id.get(node_id)
            if peer is not None:
                peer.register()
                continue
            commitment = self._ghost_commitments[node_id]
            self.chain.transact(
                f"eoa:{node_id}",
                CONTRACT_ADDRESS,
                "register",
                int(commitment.element),
                value=self.config.stake_wei,
                calldata_bytes=4 + 32,
                submitted_at=now,
            )
        roster = set(self.roster)
        for peer in self.peers:
            # Peers added after construction (pre-drive add_peer) sit
            # behind the roster in self.peers — same order as before.
            if peer.node_id not in roster:
                peer.register()
        self.chain.mine_block(timestamp=self.simulator.now)
        if not self.peers:
            return
        reference = self.peers[0]
        reference.sync()
        # One pass over the *event log* gives every peer its slot,
        # keeping bootstrap linear in the number of registrations —
        # and, unlike a full-tree scan, independent of the genesis
        # member list's size. First event wins, matching
        # MerkleTree.find_leaf at this point (no slashes have been
        # mined yet).
        index_of: Dict = {}
        for event in self.chain.event_log:
            if event.name == "MemberRegistered":
                index_of.setdefault(
                    event.args["pk"], event.args["index"]
                )
        for peer in self.peers[1:]:
            peer.adopt_sync_state(
                reference,
                index_of.get(peer.commitment.element._value),
            )
        # Every replica reads at the head: the journal has no reader left.
        self.membership_store.canonical(self.config.domain or "").prune()

    def start(self, mine_blocks: bool = True) -> None:
        """Start relays, periodic peer tasks and (optionally) the miner."""
        for peer in self.peers:
            # Per-entity build context: the periodic tasks a peer's
            # start() schedules must draw (origin, seq) keys from the
            # peer's own counter, or a worker that built fewer peers
            # would hand out different keys (no-op off the windowed
            # kernel).
            with self.simulator.build_context(peer.node_id):
                peer.start()
        if mine_blocks and self._miner_cancel is None:
            self._miner_cancel = self.simulator.schedule_periodic(
                self.chain.block_interval,
                lambda sim: self.chain.mine_block(timestamp=sim.now),
                label="miner",
            )

    def stop(self) -> None:
        for peer in self.peers:
            peer.stop()
        if self._miner_cancel is not None:
            self._miner_cancel()
            self._miner_cancel = None

    def run(self, duration: float) -> None:
        self.simulator.run_for(duration)

    # -- conveniences ----------------------------------------------------------------

    def peer(self, index: int) -> WakuRlnRelayPeer:
        return self.peers[index]

    def collect_deliveries(self) -> Dict[str, List[bytes]]:
        """Attach recorders to every peer; returns the live dict."""
        deliveries: Dict[str, List[bytes]] = {p.node_id: [] for p in self.peers}
        for peer in self.peers:
            log = deliveries[peer.node_id]
            peer.on_topic_payload(
                lambda _topic, payload, _mid, log=log: log.append(payload)
            )
        return deliveries

    @property
    def registered_count(self) -> int:
        return sum(1 for p in self.peers if p.is_registered)
