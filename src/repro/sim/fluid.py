"""Event-driven fluid-flow replay of rank traces.

Transfers active on the same resource share its capacity *max-min fairly*
(progressive filling / water-filling), each additionally bounded by its own
per-stream cap.  Rates only change when the active set changes — when an op
completes, a delay expires, a barrier releases, or a lock is granted — so the
simulation advances event-by-event: compute rates, find the earliest
completion, advance the clock, repeat.

Critical sections (:class:`~repro.sim.trace.Acquire` /
:class:`~repro.sim.trace.Release`) are replayed with mutual exclusion:
exclusive holders serialize, shared holders coexist, and waiters are granted
FIFO (consecutive shared waiters batched), so metadata-lock contention is
part of the modeled wall-clock.  Time spent waiting is charged to the
``lock`` bucket of the breakdown.

The result carries per-rank finish times and a per-(rank, phase, resource)
time breakdown that the copy-path-decomposition benchmark (E7) reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .resources import ResourceSet
from .trace import Acquire, Barrier, Delay, RankTrace, Release, Transfer

_EPS = 1e-9
_INF = float("inf")


def waterfill(caps: list[float], capacity: float) -> list[float]:
    """Max-min fair allocation of ``capacity`` among streams with per-stream
    caps ``caps``.  Returns one rate per stream, order-preserving.

    Properties (tested): 0 <= rate_i <= caps_i, sum(rates) <= capacity + eps,
    and the allocation is max-min fair (no stream can gain without a stream
    of smaller-or-equal rate losing).
    """
    n = len(caps)
    if n == 0:
        return []
    if sum(caps) <= capacity + _EPS:
        return list(caps)
    order = sorted(range(n), key=lambda i: caps[i])
    rates = [0.0] * n
    remaining = capacity
    left = n
    for idx, i in enumerate(order):
        share = remaining / left
        give = min(caps[i], share)
        rates[i] = give
        remaining -= give
        left -= 1
    return rates


@dataclass
class _BarrierState:
    participants: frozenset[int]
    arrived: set[int] = field(default_factory=set)


@dataclass
class _LockState:
    """Replay state of one named lock: current holders plus a FIFO queue."""

    holders: set[int] = field(default_factory=set)
    exclusive: bool = False
    queue: list[tuple[int, bool]] = field(default_factory=list)  # (rank, shared)

    def grantable(self, shared: bool) -> bool:
        """Can a *newly arriving* request enter immediately?  Only when no
        one is queued (FIFO fairness) and the modes are compatible."""
        if self.queue:
            return False
        if not self.holders:
            return True
        return shared and not self.exclusive

    def grant(self, rank: int, shared: bool) -> None:
        self.holders.add(rank)
        self.exclusive = not shared

    def release(self, rank: int) -> list[int]:
        """Drop ``rank`` from the holders; return the ranks now granted."""
        self.holders.discard(rank)
        granted: list[int] = []
        if self.holders:
            return granted
        self.exclusive = False
        while self.queue:
            r, shared = self.queue[0]
            if self.holders and (self.exclusive or not shared):
                break
            self.queue.pop(0)
            self.grant(r, shared)
            granted.append(r)
            if not shared:
                break
        return granted


@dataclass
class CausalRecord:
    """Happens-before evidence from one replay (``record_causal=True``).

    Segments carry the *op index* so callers can align replay time back to
    the rank's lower-bound clock (and from there to span families); wait
    segments carry the rank whose release/arrival ended them, which is the
    wake edge the critical-path walk follows.
    """

    #: (rank, op_index, phase, bucket, start_ns, end_ns, waker) — ``waker``
    #: is the rank whose Release/arrival ended a "lock"/"barrier" wait,
    #: None for work (delay/transfer) segments.  Zero-length intervals are
    #: suppressed; per rank the segments tile [0, finish] exactly.
    segments: list[tuple[int, int, str, str, float, float, int | None]] = (
        field(default_factory=list)
    )
    #: lock_id -> {"acquires", "contended", "holds", "hold_ns", "wait_ns",
    #: "max_queue", "edges": {(waiter, holder): count}}
    locks: dict[str, dict] = field(default_factory=dict)


@dataclass
class FluidResult:
    """Outcome of one replay."""

    finish_ns: dict[int, float]
    #: (rank, phase, resource-or-"delay"/"barrier") -> ns spent
    breakdown: dict[tuple[int, str, str], float]
    #: optional Gantt rows (rank, phase, bucket, start_ns, end_ns); filled
    #: when the replay ran with record_timeline=True
    timeline: list[tuple[int, str, str, float, float]] = field(
        default_factory=list
    )
    makespan_ns: float = 0.0
    #: filled when the replay ran with record_causal=True
    causal: CausalRecord | None = None

    def __post_init__(self):
        if self.finish_ns:
            self.makespan_ns = max(self.finish_ns.values())

    def phase_totals(self) -> dict[str, float]:
        """Max-over-ranks time per phase (critical-path style view)."""
        per_rank: dict[tuple[int, str], float] = {}
        for (rank, phase, _res), ns in self.breakdown.items():
            per_rank[(rank, phase)] = per_rank.get((rank, phase), 0.0) + ns
        out: dict[str, float] = {}
        for (_rank, phase), ns in per_rank.items():
            out[phase] = max(out.get(phase, 0.0), ns)
        return out


class FluidSimulator:
    """Replays a set of :class:`RankTrace` against a :class:`ResourceSet`."""

    def __init__(self, resources: ResourceSet):
        self.resources = resources

    def run(
        self,
        traces: list[RankTrace],
        *,
        record_timeline: bool = False,
        record_causal: bool = False,
    ) -> FluidResult:
        ranks = {t.rank for t in traces}
        if len(ranks) != len(traces):
            raise ValueError("duplicate rank in traces")
        ops_of = {t.rank: t.ops for t in traces}
        pos = {r: 0 for r in ranks}            # next op index
        finish = {r: 0.0 for r in ranks}
        now = 0.0

        timers: list[tuple[float, int]] = []   # (expiry, rank) for Delays
        # resource -> its active streams, each a flat record
        # [rank, remaining, rate, stream_cap, done_below, charge_key]
        active: dict[str, list[list]] = {}
        n_streams = 0
        # resources whose stream set changed since their rates were computed
        dirty: set[str] = set()
        barriers: dict[tuple[int, frozenset[int]], _BarrierState] = {}
        blocked: dict[int, tuple[int, frozenset[int]]] = {}  # rank -> barrier key
        locks: dict[str, _LockState] = {}
        lock_blocked: dict[int, str] = {}      # rank -> lock_id it waits on
        idle: list[int] = sorted(ranks)
        breakdown: dict[tuple[int, str, str], float] = {}
        # the breakdown key each busy rank is charged to: (rank, phase, bucket)
        charge_key: dict[int, tuple[int, str, str]] = {}
        timeline: list[tuple[int, str, str, float, float]] = []
        causal = CausalRecord() if record_causal else None
        segments = causal.segments if record_causal else None
        # interval tracking for the timeline and causal records:
        # rank -> (start_ns, op_index) of the op it is busy with
        tracking = record_timeline or record_causal
        busy_since: dict[int, tuple[float, int]] = {}
        lock_wait_since: dict[int, float] = {}
        lock_grant_at: dict[tuple[str, int], float] = {}

        def lock_stats(lock_id: str) -> dict:
            st = causal.locks.get(lock_id)
            if st is None:
                st = causal.locks[lock_id] = {
                    "acquires": 0, "contended": 0, "holds": 0,
                    "hold_ns": 0.0, "wait_ns": 0.0, "max_queue": 0,
                    "edges": {},
                }
            return st

        def finish_interval(rank: int, waker: int | None = None) -> None:
            start, index = busy_since.pop(rank)
            if now - start > _EPS:
                _, phase, bucket = charge_key[rank]
                if record_timeline:
                    timeline.append((rank, phase, bucket, start, now))
                if record_causal:
                    segments.append(
                        (rank, index, phase, bucket, start, now, waker)
                    )

        def start_next(rank: int) -> None:
            """Activate ops for `rank` until it blocks or its trace ends."""
            nonlocal n_streams
            ops = ops_of[rank]
            i = pos[rank]
            while i < len(ops):
                op = ops[i]
                kind = type(op)
                if kind is Delay:
                    if op.ns <= _EPS:
                        i += 1
                        continue
                    pos[rank] = i
                    charge_key[rank] = (rank, op.phase, "delay")
                    if tracking:
                        busy_since[rank] = (now, i)
                    heapq.heappush(timers, (now + op.ns, rank))
                    return
                if kind is Transfer:
                    amount = op.amount
                    if amount <= _EPS:
                        i += 1
                        continue
                    pos[rank] = i
                    key = charge_key[rank] = (rank, op.phase, op.resource)
                    if tracking:
                        busy_since[rank] = (now, i)
                    stream = [rank, amount, 0.0, op.stream_cap,
                              _EPS * max(1.0, amount), key]
                    streams = active.get(op.resource)
                    if streams is None:
                        active[op.resource] = [stream]
                    else:
                        streams.append(stream)
                    n_streams += 1
                    dirty.add(op.resource)
                    return
                if kind is Acquire:
                    st = locks.get(op.lock_id)
                    if st is None:
                        st = locks[op.lock_id] = _LockState()
                    if record_causal:
                        lock_stats(op.lock_id)["acquires"] += 1
                    if st.grantable(op.shared):
                        st.grant(rank, op.shared)
                        if record_causal:
                            lock_grant_at[(op.lock_id, rank)] = now
                        i += 1
                        continue
                    if record_causal:
                        ls = lock_stats(op.lock_id)
                        ls["contended"] += 1
                        waited_on = st.holders or {st.queue[0][0]}
                        for h in waited_on:
                            edge = (rank, h)
                            ls["edges"][edge] = ls["edges"].get(edge, 0) + 1
                        lock_wait_since[rank] = now
                    st.queue.append((rank, op.shared))
                    if record_causal:
                        ls["max_queue"] = max(ls["max_queue"], len(st.queue))
                    pos[rank] = i
                    lock_blocked[rank] = op.lock_id
                    charge_key[rank] = (rank, op.phase, "lock")
                    if tracking:
                        busy_since[rank] = (now, i)
                    return
                if kind is Release:
                    st = locks.get(op.lock_id)
                    if st is None or rank not in st.holders:
                        raise ValueError(
                            f"rank {rank} releasing lock {op.lock_id!r} it "
                            f"does not hold"
                        )
                    i += 1
                    if record_causal:
                        ls = lock_stats(op.lock_id)
                        ls["holds"] += 1
                        ls["hold_ns"] += now - lock_grant_at.pop(
                            (op.lock_id, rank), now
                        )
                    for r in st.release(rank):
                        if tracking:
                            finish_interval(r, waker=rank)
                        if record_causal:
                            ls["wait_ns"] += now - lock_wait_since.pop(r, now)
                            lock_grant_at[(op.lock_id, r)] = now
                        del lock_blocked[r]
                        pos[r] += 1
                        idle.append(r)
                    continue
                if kind is Barrier:
                    key = (op.barrier_id, frozenset(op.participants))
                    if rank not in key[1]:
                        raise ValueError(
                            f"rank {rank} hit barrier {op.barrier_id} it does "
                            f"not participate in"
                        )
                    st = barriers.get(key)
                    if st is None:
                        st = barriers[key] = _BarrierState(key[1])
                    st.arrived.add(rank)
                    pos[rank] = i
                    charge_key[rank] = (rank, op.phase, "barrier")
                    if tracking:
                        busy_since[rank] = (now, i)
                    blocked[rank] = key
                    if st.arrived == st.participants:
                        release = [r for r in st.participants if blocked.get(r) == key]
                        del barriers[key]
                        for r in release:
                            if tracking:
                                finish_interval(r, waker=rank)
                            del blocked[r]
                            pos[r] += 1
                            idle.append(r)
                        # `rank` itself is among release; it re-enters via idle
                    return
                raise TypeError(f"unknown op {op!r}")
            pos[rank] = i
            finish[rank] = now  # trace exhausted

        while True:
            # Activate all idle ranks (may cascade through barrier releases).
            while idle:
                start_next(idle.pop())

            if n_streams == 0 and not timers:
                if blocked or lock_blocked:
                    stuck = sorted(set(blocked) | set(lock_blocked))
                    raise RuntimeError(
                        f"deadlock: ranks {stuck} blocked on barriers/locks "
                        f"that will never complete"
                    )
                break

            # Max-min rates change only on resources whose stream set changed.
            for res_name in dirty:
                streams = active.get(res_name)
                if streams:
                    rates = waterfill(
                        [s[3] for s in streams],
                        self.resources[res_name].capacity(len(streams)),
                    )
                    for s, r in zip(streams, rates):
                        s[2] = r
            dirty.clear()

            # Earliest next event.
            dt = timers[0][0] - now if timers else _INF
            for streams in active.values():
                for s in streams:
                    rate = s[2]
                    if rate > 0:
                        t = s[1] / rate
                        if t < dt:
                            dt = t
            if not (dt < _INF):
                raise RuntimeError("no progress possible (all rates zero)")
            if dt <= 0.0:
                # a zero step moves no stream and charges nothing; only
                # timers due within _EPS can expire
                dt = 0.0
                completed = ()
            else:
                # Advance clocks and charge accounting.
                now += dt
                completed = []
                for res_name, streams in active.items():
                    drained = False
                    for s in streams:
                        key = s[5]
                        breakdown[key] = breakdown.get(key, 0.0) + dt
                        s[1] -= s[2] * dt
                        if s[1] <= s[4]:
                            drained = True
                    if drained:
                        completed.append(res_name)
                for _expiry, rank in timers:
                    key = charge_key[rank]
                    breakdown[key] = breakdown.get(key, 0.0) + dt
                for rank in blocked:
                    key = charge_key[rank]
                    breakdown[key] = breakdown.get(key, 0.0) + dt
                for rank in lock_blocked:
                    key = charge_key[rank]
                    breakdown[key] = breakdown.get(key, 0.0) + dt

            # Complete transfers.
            for res_name in completed:
                streams = active[res_name]
                running = [s for s in streams if s[1] > s[4]]
                if running:
                    active[res_name] = running
                else:
                    del active[res_name]
                dirty.add(res_name)
                n_streams -= len(streams) - len(running)
                for s in streams:
                    if s[1] <= s[4]:
                        rank = s[0]
                        if tracking:
                            finish_interval(rank)
                        pos[rank] += 1
                        idle.append(rank)

            # Expire timers.
            while timers and timers[0][0] <= now + _EPS:
                _, rank = heapq.heappop(timers)
                if tracking:
                    finish_interval(rank)
                pos[rank] += 1
                idle.append(rank)

        if record_causal:
            # a lock still held at trace end closes its hold interval here
            for (lock_id, rank), t0 in lock_grant_at.items():
                ls = lock_stats(lock_id)
                ls["holds"] += 1
                ls["hold_ns"] += now - t0
            causal.segments.sort(key=lambda s: (s[0], s[4], s[1]))
        return FluidResult(
            finish_ns=finish, breakdown=breakdown, timeline=timeline,
            causal=causal,
        )
