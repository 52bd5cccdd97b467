"""SPMD functional-pass engine.

``run_spmd(nprocs, fn)`` executes ``fn(ctx)`` on every rank against real
(scaled-down) buffers.  *How* ranks execute is delegated to a
:class:`RankEngine`:

- :class:`ThreadEngine` (``threads``, the universal default) — one OS
  thread per rank, GIL-serialized, deterministic, crash-sim capable;
- ``ProcEngine`` (``procs``, :mod:`repro.sim.procengine`) — one forked OS
  *process* per rank over an mmap shared-memory heap, so data-path copies
  genuinely run in parallel.

Engine selection: the ``engine=`` argument, else the ``REPRO_ENGINE``
environment variable (``threads`` | ``procs``), else ``threads``.

The :class:`Context` is the single funnel through which every substrate
records costs:

- ``ctx.delay(ns)`` / ``ctx.transfer(resource, amount, cap)`` append trace ops;
- ``ctx.model_bytes(n)`` converts functional-pass byte counts to paper-scale
  modeled bytes;
- ``ctx.barrier()`` both synchronizes the ranks *and* records a Barrier op;
- ``ctx.phase(name)`` labels subsequent ops for breakdown reporting;
- ``ctx.board`` is a shared rendezvous board the MPI layer builds
  collectives on (thread board here; shm board under procs).

Determinism: each rank appends only to its own trace, and trace contents
depend only on the rank's logical execution, so the timing pass is
reproducible — up to one caveat: where ranks contend on shared *functional*
state (e.g. hashtable chains whose order reflects insertion interleaving),
metadata-traversal costs can jitter by microseconds between runs.  Data-path
costs, which dominate every reported figure, are exactly reproducible.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from ..config import DEFAULT_MACHINE, MachineSpec
from ..errors import CollectiveAbortedError, EngineUnavailableError, RankFailedError
from ..shm.sync import LocalLockProvider
from .fluid import FluidResult, FluidSimulator
from .resources import build_standard_resources
from .trace import Acquire, Barrier, Delay, RankTrace, Release, Transfer

#: environment variable selecting the default rank engine
ENGINE_ENV = "REPRO_ENGINE"
ENGINE_NAMES = ("threads", "procs")


class SharedBoard:
    """A lock-protected blackboard shared by all ranks of a run.

    The MPI layer uses it to exchange object references for collectives; the
    engine uses it for functional barriers.  Keys are arbitrary hashables.
    The collective/p2p/KV protocol methods mirror
    :class:`~repro.shm.board.ProcBoard` so callers are engine-agnostic.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.data: dict[Any, Any] = {}
        self._barriers: dict[tuple, threading.Barrier] = {}
        self._aborted = False

    def functional_barrier(self, participants: tuple[int, ...]) -> threading.Barrier:
        key = ("barrier", participants)
        with self.lock:
            b = self._barriers.get(key)
            if b is None:
                b = threading.Barrier(len(participants))
                if self._aborted:
                    # a rank already failed; poison new barriers too so
                    # latecomers can't block forever
                    b.abort()
                self._barriers[key] = b
            return b

    @property
    def aborted(self) -> bool:
        return self._aborted

    def abort_all_barriers(self) -> None:
        with self.lock:
            self._aborted = True
            for b in self._barriers.values():
                b.abort()
            self.cond.notify_all()

    # -- collective exchange (thread ranks share references) -------------------

    def exchange(self, key, rank: int, nparties: int, value) -> dict:
        """Deposit ``value`` as ``rank``; block until all ``nparties``
        deposited; return {rank: value}.  The last reader cleans up."""
        with self.cond:
            slot = self.data.setdefault(key, {"vals": {}, "taken": 0})
            slot["vals"][rank] = value
            if len(slot["vals"]) == nparties:
                self.cond.notify_all()
            else:
                self.cond.wait_for(
                    lambda: len(slot["vals"]) == nparties or self._aborted
                )
                if len(slot["vals"]) != nparties:
                    raise CollectiveAbortedError(
                        f"collective {key!r} aborted: a peer rank failed"
                    )
            vals = slot["vals"]
            slot["taken"] += 1
            if slot["taken"] == nparties:
                del self.data[key]
            return vals

    # -- point-to-point --------------------------------------------------------

    def p2p_put(self, key, value) -> None:
        with self.cond:
            self.data.setdefault(("q", key), []).append(value)
            self.cond.notify_all()

    def p2p_take(self, key):
        qkey = ("q", key)
        with self.cond:
            self.cond.wait_for(lambda: self.data.get(qkey) or self._aborted)
            if not self.data.get(qkey):
                raise CollectiveAbortedError("recv aborted: peer rank failed")
            q = self.data[qkey]
            value = q.pop(0)
            if not q:
                del self.data[qkey]
        return value

    # -- plain KV --------------------------------------------------------------

    def put(self, key, value) -> None:
        with self.cond:
            self.data[("kv", key)] = value
            self.cond.notify_all()

    def get(self, key, default=None):
        with self.cond:
            return self.data.get(("kv", key), default)

    def wait_get(self, key):
        kv = ("kv", key)
        with self.cond:
            self.cond.wait_for(lambda: kv in self.data or self._aborted)
            if kv not in self.data:
                raise CollectiveAbortedError(
                    f"wait for {key!r} aborted: a peer rank failed"
                )
            return self.data[kv]


class Context:
    """Per-rank handle passed to the SPMD function."""

    def __init__(
        self,
        rank: int,
        nprocs: int,
        *,
        machine: MachineSpec,
        scale: int,
        board,
        trace: RankTrace,
        env=None,
        engine: str = "threads",
        locks=None,
    ):
        self.rank = rank
        self.nprocs = nprocs
        self.machine = machine
        self.scale = scale
        self.board = board
        self.trace = trace
        #: experiment environment (e.g. a repro.cluster.Cluster) giving the
        #: rank access to the node's devices and filesystems
        self.env = env
        #: which rank engine is executing this rank ("threads" | "procs")
        self.engine = engine
        #: volatile-lock-core provider — in-process cores under threads,
        #: shared-memory cores under procs (same keys → same arbitration)
        self.locks = locks if locks is not None else LocalLockProvider()
        self._phase_stack: list[str] = [""]
        self._barrier_counts: dict[tuple[int, ...], int] = {}
        #: running uncontended lower bound of this rank's modeled time — a
        #: cheap monotonic clock telemetry uses to meter held intervals
        #: (e.g. meta-lock hold time) without rescanning the trace
        self.lb_ns = 0.0

    # -- cost recording -------------------------------------------------------

    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1]

    @contextmanager
    def phase(self, name: str):
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()

    def model_bytes(self, real_bytes: int | float) -> float:
        """Scale a functional-pass byte count up to paper scale."""
        return float(real_bytes) * self.scale

    def delay(self, ns: float, note: str = "") -> None:
        """Record a fixed latency.  Adjacent same-phase delays are merged —
        sequential delays sum, so this is semantically exact and keeps
        metadata-heavy traces small."""
        if ns <= 0:
            return
        self.lb_ns += ns
        phase = self._phase_stack[-1]
        ops = self.trace.ops
        if ops:
            last = ops[-1]
            if (
                type(last) is Delay
                and last.phase == phase
                and last.note == note
            ):
                ops[-1] = Delay(last.ns + ns, phase, note)
                return
        ops.append(Delay(ns, phase, note))

    def transfer(
        self, resource: str, amount: float, stream_cap: float, note: str = ""
    ) -> None:
        """Record a resource transfer.  Adjacent same-phase transfers with the
        same resource and stream cap are merged — a stream's max-min rate
        depends only on the concurrently active set, so back-to-back
        transfers of the same stream are exactly equivalent to their sum."""
        if amount <= 0:
            return
        self.lb_ns += amount / stream_cap
        phase = self._phase_stack[-1]
        ops = self.trace.ops
        if ops:
            last = ops[-1]
            if (
                type(last) is Transfer
                and last.phase == phase
                and last.resource == resource
                and last.stream_cap == stream_cap
                and last.note == note
            ):
                ops[-1] = Transfer(
                    resource, last.amount + amount, stream_cap, phase, note
                )
                return
        ops.append(Transfer(resource, amount, stream_cap, phase, note))

    # -- lock discipline -------------------------------------------------------

    def lock_acquired(self, lock_id: str, *, shared: bool = False,
                      note: str = "", replay: bool = True) -> None:
        """Record entering the critical section ``lock_id``.

        Appends an :class:`~repro.sim.trace.Acquire` op (so the timing pass
        serializes the section against other ranks) and logs the event for
        the post-run lock-discipline checker.  Callers invoke this *after*
        their functional acquisition succeeds, so the ops charged inside the
        critical section sit between the Acquire and Release in the trace.

        ``replay=False`` skips the trace op — the section still serializes
        functionally and still feeds the checker, but the timing pass treats
        it as free of mutual exclusion (the original modeling of the global
        namespace mutex; see ``repro.pmdk.locks``).
        """
        if replay:
            self.trace.append(
                Acquire(lock_id=lock_id, shared=shared,
                        phase=self.current_phase, note=note)
            )
        self.trace.lock_events.append(
            ("acquire", lock_id, "r" if shared else "w")
        )

    def lock_released(self, lock_id: str, *, replay: bool = True) -> None:
        """Record leaving the critical section ``lock_id`` (call *before*
        the functional release).  ``replay`` must match the acquire."""
        if replay:
            self.trace.append(Release(lock_id=lock_id, phase=self.current_phase))
        self.trace.lock_events.append(("release", lock_id, ""))

    def record_guarded_write(self, scope: str) -> None:
        """Declare a metadata write that must happen under the exclusive
        guard named ``scope`` — the lock-discipline checker flags the write
        as a lost-update hazard if that guard is not currently held."""
        self.trace.lock_events.append(("write", scope, ""))

    # -- synchronization -------------------------------------------------------

    def barrier(self, participants: tuple[int, ...] | None = None) -> None:
        """Rendezvous functionally and record a Barrier op.

        The barrier id is the rank-local count of barriers on this
        participant set: SPMD determinism guarantees matching ids match
        matching rendezvous.
        """
        if participants is None:
            participants = tuple(range(self.nprocs))
        seq = self._barrier_counts.get(participants, 0)
        self._barrier_counts[participants] = seq + 1
        self.trace.append(
            Barrier(
                barrier_id=seq,
                participants=participants,
                phase=self.current_phase,
            )
        )
        self.board.functional_barrier(participants).wait()


@dataclass
class SpmdResult:
    """Everything a finished functional pass produced."""

    nprocs: int
    machine: MachineSpec
    scale: int
    traces: list[RankTrace]
    returns: list[Any]
    #: which engine executed the run ("threads" | "procs")
    engine: str = "threads"
    #: worker pids under the procs engine (empty for threads)
    worker_pids: tuple[int, ...] = ()
    _timing: FluidResult | None = field(default=None, repr=False)

    def time(self) -> FluidResult:
        """Run (and cache) the timing pass over the recorded traces against
        the machine's standard resources."""
        if self._timing is None:
            self._timing = FluidSimulator(
                build_standard_resources(self.machine)
            ).run(self.traces)
        return self._timing

    @property
    def makespan_ns(self) -> float:
        return self.time().makespan_ns

    @property
    def makespan_s(self) -> float:
        return self.time().makespan_ns / 1e9


#: exception classes that are *secondary casualties* of another rank's
#: failure — never the root cause a RankFailedError should surface
_CASUALTY_TYPES = (threading.BrokenBarrierError, CollectiveAbortedError)


def select_root_failure(
    failures: list[tuple[int, BaseException]],
) -> tuple[int, BaseException]:
    """Pick the failure to surface from a multi-rank pile-up.

    When one rank fails, every peer blocked on a barrier or collective
    unwinds with a casualty exception (``BrokenBarrierError`` or
    :class:`~repro.errors.CollectiveAbortedError`) — regardless of rank
    order, the surfaced exception must be the lowest-ranked *non-casualty*.
    Only if every failure is a casualty (which indicates an engine bug) does
    the lowest-ranked one surface.
    """
    ordered = sorted(failures, key=lambda f: f[0])
    for rank, exc in ordered:
        if not isinstance(exc, _CASUALTY_TYPES):
            return rank, exc
    return ordered[0]


class RankEngine(ABC):
    """Execution substrate for one SPMD run."""

    name: str

    @abstractmethod
    def run(
        self,
        nprocs: int,
        fn: Callable[[Context], Any],
        *,
        machine: MachineSpec,
        scale: int,
        thread_name: str,
        env,
    ) -> SpmdResult:
        """Execute ``fn`` on every rank; return traces and values."""


class ThreadEngine(RankEngine):
    """One OS thread per rank — deterministic, universal, crash-sim capable."""

    name = "threads"

    def run(self, nprocs, fn, *, machine, scale, thread_name, env) -> SpmdResult:
        board = SharedBoard()
        locks = LocalLockProvider()
        traces = [RankTrace(rank=r) for r in range(nprocs)]
        returns: list[Any] = [None] * nprocs
        failures: list[tuple[int, BaseException]] = []
        flock = threading.Lock()

        def runner(r: int) -> None:
            ctx = Context(
                r, nprocs, machine=machine, scale=scale, board=board,
                trace=traces[r], env=env, engine=self.name, locks=locks,
            )
            try:
                returns[r] = fn(ctx)
            except BaseException as exc:  # noqa: BLE001 - must unblock peers
                with flock:
                    failures.append((r, exc))
                board.abort_all_barriers()

        threads = [
            threading.Thread(target=runner, args=(r,), name=f"{thread_name}-{r}")
            for r in range(nprocs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if failures:
            rank, exc = select_root_failure(failures)
            raise RankFailedError(rank, exc) from exc

        return SpmdResult(
            nprocs=nprocs, machine=machine, scale=scale,
            traces=traces, returns=returns, engine=self.name,
        )


def resolve_engine(engine: str | None = None) -> RankEngine:
    """Instantiate the requested engine (arg > ``REPRO_ENGINE`` > threads)."""
    name = engine or os.environ.get(ENGINE_ENV) or "threads"
    if name == "threads":
        return ThreadEngine()
    if name == "procs":
        from .procengine import ProcEngine

        return ProcEngine()
    raise EngineUnavailableError(
        f"unknown rank engine {name!r} (expected one of {ENGINE_NAMES})"
    )


def run_spmd(
    nprocs: int,
    fn: Callable[[Context], Any],
    *,
    machine: MachineSpec = DEFAULT_MACHINE,
    scale: int = 1,
    thread_name: str = "rank",
    env=None,
    engine: str | None = None,
) -> SpmdResult:
    """Run ``fn`` on ``nprocs`` ranks; gather traces and return values.

    Any rank exception aborts all functional barriers (so peers unblock) and
    re-raises as :class:`RankFailedError` carrying the root-cause original.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    eng = resolve_engine(engine)
    result = eng.run(
        nprocs, fn, machine=machine, scale=scale,
        thread_name=thread_name, env=env,
    )

    if os.environ.get("REPRO_LOCKCHECK"):
        # fail loudly under the checker-enabled test subset (CI job)
        from .lockcheck import check_lock_discipline

        check_lock_discipline(result.traces).raise_if_violations()

    return result
