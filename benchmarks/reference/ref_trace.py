"""Outside-in tracing for the reference benchmark.

Nothing under ``src/`` knows about this file. Before a run starts the
child patches class and module attributes of the layers' public
functions with span-recording wrappers; the run then executes the
program unchanged. Spans ``(name, start, end, parent)`` are kept in
four flat arrays and reduced to per-name self seconds after the run:
a span's self time is its duration minus the part its child spans
cover, so self times of nested layers never double count.

Two kinds of hooks:

* :class:`Marks` — always installed, traced or not. Two call-once
  functions timestamp the moment the kernel starts executing
  simulated time (the ``setup_s`` / ``wall_s`` boundary). They add
  two Python calls to a whole run.
* :class:`SpanRecorder` — only in the traced run. ``Simulator.schedule``
  and the hash functions are never wrapped: they run millions of times
  and a per-call clock read would cost more than the call (hashes are
  counted by ``hash_call_count()`` instead).

Forked workers inherit the wrappers through ``fork``. A fork hook
notes where the child's own spans begin; when the child sends its
final ``done`` message it writes its span arrays to a file in the
dump directory, which the parent reduces after the run (reducing in
the child would hold the coordinator up and inflate the traced wall).
"""

from __future__ import annotations

import inspect
import os
import pickle as _pickle
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: Span names wrapped per layer: ``(module, class or None, attribute)``.
#: The name is the ledger row; several callables may share one row.
SPAN_TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("sim.kernel", "repro.sim.simulator", "Simulator", "run"),
    ("sim.kernel", "repro.sim.parallel_stack", "WindowedStackSimulator",
     "run_window"),
    ("sim.kernel", "repro.sim.parallel_stack", "WindowedStackSimulator",
     "inject"),
    ("net.send", "repro.net.network", "Network", "send"),
    ("gossipsub.deliver", "repro.gossipsub.router", "GossipSubRouter",
     "deliver"),
    ("gossipsub.heartbeat", "repro.gossipsub.router", "GossipSubRouter",
     "heartbeat"),
    ("gossipsub.publish", "repro.gossipsub.router", "GossipSubRouter",
     "publish"),
    ("core.validate", "repro.core.validator", "RlnMessageValidator",
     "validate_bytes"),
    ("core.publish", "repro.core.peer", "WakuRlnRelayPeer", "publish"),
    ("core.sync", "repro.core.peer", "WakuRlnRelayPeer", "sync"),
    ("core.nullifier_observe", "repro.core.nullifier_map", "NullifierMap",
     "observe"),
    ("rln.check", "repro.rln.verifier", "RlnVerifier", "check"),
    ("rln.verify", "repro.crypto.zksnark.groth16", None, "verify"),
    ("rln.create_signal", "repro.rln.prover", "RlnProver", "create_signal"),
    ("rln.memo_commit", "repro.rln.verifier", "BarrierMemoCache", "commit"),
    ("rln.memo_commit", "repro.rln.verifier", "BarrierMemoCache", "drain"),
    ("membership.genesis", "repro.eth.contracts", "MembershipRegistry",
     "genesis_register"),
    ("membership.register_all", "repro.core.protocol",
     "WakuRlnRelayNetwork", "register_all"),
    ("membership.apply", "repro.rln.membership", "LocalGroup",
     "apply_registration"),
    ("membership.apply", "repro.rln.membership", "LocalGroup",
     "apply_registration_batch"),
    ("membership.apply", "repro.rln.membership", "LocalGroup",
     "apply_removal"),
    ("membership.proof", "repro.rln.membership", "LocalGroup",
     "merkle_proof"),
    ("membership.proof", "repro.rln.membership", "LocalGroup",
     "two_level_proof"),
    ("eth.transact", "repro.eth.chain", "Blockchain", "transact"),
    ("eth.mine", "repro.eth.chain", "Blockchain", "mine_block"),
    ("eth.replica_apply", "repro.eth.chain", "Blockchain", "replica_apply"),
    ("eth.order_ops", "repro.eth.chain", "Blockchain", "order_ops"),
    ("scenarios.materialize", "repro.scenarios.runner", "ScenarioRunner",
     "__init__"),
    ("scenarios.run", "repro.scenarios.runner", "ScenarioRunner", "run"),
)

#: Spans that make a worker "busy": executing its windows, applying the
#: barrier's chain ops and committing the memo delta. None nests inside
#: another, so their total seconds add up. The rest of a forked
#: worker's wall is pipe wait, unpickling and idling at the barrier.
WORKER_BUSY = ("sim.kernel", "eth.replica_apply", "rln.memo_commit")


def _resolve(module: str, cls: Optional[str]):
    owner = __import__(module, fromlist=["_"])
    return getattr(owner, cls) if cls else owner


def _patch(owner, attr: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` with ``wrap(original)``, keeping a
    ``staticmethod`` a staticmethod."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(wrap(raw.__func__)))
    else:
        setattr(owner, attr, wrap(raw))


class Marks:
    """Timestamps of the run's phase boundaries, taken from outside."""

    def __init__(self) -> None:
        #: Kernel starts executing simulated time: entry to
        #: ``WakuRlnRelayNetwork.run`` (serial) or the drivers' first
        #: ``barrier_times`` call (windowed: right before the first
        #: ``run_window``; forked: right after the coordinator has
        #: collected every worker's ``ready``).
        self.kernel_start: Optional[float] = None
        #: ``hash_call_count()`` of this process at that moment.
        self.hashes_at_kernel_start = 0
        #: The network the run built (each forked worker captures its
        #: own), for the counters it exposes.
        self.net = None

    def install(self) -> None:
        from repro.crypto.hashing import hash_call_count

        marks = self

        def stamp(fn):
            def stamped(*args, **kwargs):
                if marks.kernel_start is None:
                    marks.hashes_at_kernel_start = hash_call_count()
                    marks.kernel_start = clock()
                return fn(*args, **kwargs)

            return stamped

        def capture(fn):
            def captured(net, *args, **kwargs):
                marks.net = net
                return fn(net, *args, **kwargs)

            return captured

        protocol = _resolve("repro.core.protocol", "WakuRlnRelayNetwork")
        _patch(protocol, "run", stamp)
        _patch(protocol, "__init__", capture)
        _patch(_resolve("repro.scenarios.parallel", None), "barrier_times",
               stamp)


class SpanRecorder:
    """Span arrays plus the wrappers that fill them."""

    def __init__(self, dump_dir: str, marks: Marks) -> None:
        self.dump_dir = dump_dir
        self.marks = marks
        self.names: List[str] = []
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        #: Index of the innermost open span (-1 = none).
        self._current = [-1]
        self.main_pid = os.getpid()
        #: First span index recorded by this process (0 in the main
        #: process, the fork point in a worker).
        self.fork_index = 0
        self.fork_time = 0.0
        self.hashes_at_fork = 0
        self.hashes_at_ready = 0
        self.ready_time = 0.0
        #: Pickled bytes this process wrote to its pipes.
        self.bytes_sent = 0

    # -- wrapping ----------------------------------------------------------

    def _code_of(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrapper(self, name: str) -> Callable[[Callable], Callable]:
        code = self._code_of(name)
        codes, starts, ends, parents = (
            self.code, self.start, self.end, self.parent
        )
        current = self._current

        def wrap(fn):
            def traced(*args, **kwargs):
                index = len(starts)
                codes.append(code)
                parents.append(current[0])
                ends.append(0.0)
                current[0] = index
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    current[0] = parents[index]

            return traced

        return wrap

    def install(self) -> None:
        for name, module, cls, attr in SPAN_TARGETS:
            _patch(_resolve(module, cls), attr, self.wrapper(name))
        store = _resolve("repro.watchtower.store", "WatchtowerStore")
        for attr, raw in list(vars(store).items()):
            if not attr.startswith("_") and inspect.isfunction(raw):
                _patch(store, attr, self.wrapper("watchtower.store"))
        parallel = _resolve("repro.scenarios.parallel", None)
        parallel.pickle = _PickleShim(self)
        os.register_at_fork(after_in_child=self._after_fork)

    # -- forked workers ------------------------------------------------------

    def _after_fork(self) -> None:
        from repro.crypto.hashing import hash_call_count

        self.fork_index = len(self.start)
        self.fork_time = clock()
        self.hashes_at_fork = hash_call_count()
        self.bytes_sent = 0

    def note_sent(self, message, size: int) -> None:
        """Pipe-protocol landmarks seen by the pickle shim in a worker:
        ``ready`` ends the worker's set-up, ``done`` ends its run."""
        self.bytes_sent += size
        if os.getpid() == self.main_pid:
            return
        from repro.crypto.hashing import hash_call_count

        if message[0] == "ready":
            self.ready_time = clock()
            self.hashes_at_ready = hash_call_count()
        elif message[0] == "done":
            self._dump_worker(clock(), hash_call_count())

    def _dump_worker(self, done_time: float, hashes: int) -> None:
        lo = self.fork_index
        payload = {
            "names": self.names,
            "fork_index": lo,
            "code": self.code[lo:].tobytes(),
            "start": self.start[lo:].tobytes(),
            "end": self.end[lo:].tobytes(),
            "parent": self.parent[lo:].tobytes(),
            "fork_time": self.fork_time,
            "ready_time": self.ready_time,
            "done_time": done_time,
            "hashes_setup": self.hashes_at_ready - self.hashes_at_fork,
            "hashes_run": hashes - self.hashes_at_ready,
            "bytes_sent": self.bytes_sent,
            # The worker's own network, captured when it built it.
            "shard_stats": self.marks.net.simulator.shard_stats(),
        }
        path = os.path.join(self.dump_dir, f"worker_{os.getpid()}.pickle")
        with open(path, "wb") as handle:
            _pickle.dump(payload, handle, protocol=_pickle.HIGHEST_PROTOCOL)

    def load_workers(self) -> List["SpanSet"]:
        """Span sets of every forked worker of the finished run (files
        this benchmark's own children wrote, nothing else)."""
        workers = []
        for entry in sorted(os.listdir(self.dump_dir)):
            if not entry.startswith("worker_"):
                continue
            with open(os.path.join(self.dump_dir, entry), "rb") as handle:
                payload = _pickle.load(handle)
            workers.append(
                SpanSet(
                    payload["names"],
                    _from_bytes("H", payload["code"]),
                    _from_bytes("d", payload["start"]),
                    _from_bytes("d", payload["end"]),
                    _from_bytes("l", payload["parent"]),
                    offset=payload["fork_index"],
                    info=payload,
                )
            )
        return workers

    def spans(self) -> "SpanSet":
        return SpanSet(
            self.names, self.code, self.start, self.end, self.parent
        )


def _from_bytes(typecode: str, data: bytes) -> array:
    out = array(typecode)
    out.frombytes(data)
    return out


class _PickleShim:
    """Stands in for the ``pickle`` module inside
    ``repro.scenarios.parallel``: same stream on the pipes, but every
    ``dump`` is a ``barrier.send`` span whose bytes are counted and
    every ``load`` a ``barrier.recv`` span (pipe wait + unpickling)."""

    HIGHEST_PROTOCOL = _pickle.HIGHEST_PROTOCOL

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder
        self.load = recorder.wrapper("barrier.recv")(_pickle.load)
        self.dump = recorder.wrapper("barrier.send")(self._dump)

    def _dump(self, message, pipe, protocol=None) -> None:
        data = _pickle.dumps(message, protocol=protocol)
        pipe.write(data)
        if message[0] == "done":
            # Let the coordinator read the bundle before this worker
            # spends time writing its spans out.
            pipe.flush()
        self._recorder.note_sent(message, len(data))


class SpanSet:
    """Finished spans of one process, reducible to a ledger."""

    def __init__(self, names, code, start, end, parent, offset=0,
                 info=None) -> None:
        self.names = list(names)
        self.code = code
        self.start = start
        self.end = end
        #: Parent indices are absolute; ``offset`` is the absolute
        #: index of this set's first span (parents below it are spans
        #: inherited from the forking process, i.e. outside the set).
        self.parent = parent
        self.offset = offset
        #: A worker's landmarks and counters (see ``_dump_worker``).
        self.info: Dict[str, object] = info or {}

    def ledger(self, lo: float, hi: float) -> Dict[str, List[float]]:
        """Per-name ``[calls, self seconds, total seconds]`` over the
        interval ``[lo, hi]``.

        Spans are clipped to the interval (one still open when the
        arrays were written counts as ending at ``hi``). ``calls``
        counts spans that *start* inside it; total seconds are the
        clipped durations, children included.
        """
        names = self.names
        out = {name: [0, 0.0, 0.0] for name in names}
        rows = [out[name] for name in names]
        offset = self.offset
        code, start, end, parent = (
            self.code, self.start, self.end, self.parent
        )
        for i in range(len(start)):
            begin = start[i]
            if begin >= hi:
                break  # spans are recorded in start order
            finish = end[i]
            if finish == 0.0 or finish > hi:
                finish = hi
            if finish <= lo:
                continue
            row = rows[code[i]]
            if begin >= lo:
                row[0] += 1
            else:
                begin = lo
            duration = finish - begin
            row[1] += duration
            row[2] += duration
            up = parent[i] - offset
            if up >= 0:
                rows[code[up]][1] -= duration
        return out

    def last_end(self, name: str) -> float:
        """End of the last finished span called ``name`` (0.0 = none)."""
        wanted = self.names.index(name)
        code, end = self.code, self.end
        for i in range(len(code) - 1, -1, -1):
            if code[i] == wanted and end[i]:
                return end[i]
        return 0.0
