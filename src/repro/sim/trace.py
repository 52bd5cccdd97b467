"""Trace operation types recorded by the functional pass.

A trace is, per rank, an ordered list of ops.  Five kinds exist:

- :class:`Delay` — a fixed latency (syscall entry, page fault, msync commit);
- :class:`Transfer` — ``amount`` abstract units moved through one named
  resource, rate-limited by a per-stream cap and by the resource's max-min
  fair share (bytes for devices, core-nanoseconds for the CPU);
- :class:`Barrier` — a rendezvous among a set of ranks; completes for all
  participants when the last one arrives;
- :class:`Acquire` / :class:`Release` — enter/exit a named critical section.
  The timing pass serializes exclusive sections on the same ``lock_id``
  (FIFO, shared readers batched), so lock contention shows up in modeled
  wall-clock — not just in the functional pass's thread interleaving.

Ops carry a ``phase`` label so results can be broken down into the paper's
copy-path stages (generate / rearrange / serialize / kernel / device...).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class _Op:
    """Base of the trace ops: a ``__slots__`` record with value semantics.

    Ops are built once per charged access, so they are plain slotted
    objects rather than frozen dataclasses, which cost three to four times
    as much to construct.  Equality, hashing and ``repr`` compare/print the slots in
    declaration order; pickling rebuilds through the constructor, so the
    argument checks re-run on the receiving side (the procs engine ships
    traces between processes).  Ops are never mutated after construction:
    :class:`~repro.sim.engine.Context` merges by replacing the last op.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return (type(self), self._values())


class Delay(_Op):
    __slots__ = ("ns", "phase", "note")

    def __init__(self, ns: float, phase: str = "", note: str = ""):
        if ns < 0:
            raise ValueError(f"negative delay: {ns}")
        self.ns = ns
        self.phase = phase
        self.note = note


class Transfer(_Op):
    #: ``amount`` is in abstract units (bytes, or core-ns for "cpu");
    #: ``stream_cap`` is the units per ns this stream can draw at most
    __slots__ = ("resource", "amount", "stream_cap", "phase", "note")

    def __init__(self, resource: str, amount: float, stream_cap: float,
                 phase: str = "", note: str = ""):
        if amount < 0:
            raise ValueError(f"negative transfer amount: {amount}")
        if stream_cap <= 0:
            raise ValueError(f"non-positive stream cap: {stream_cap}")
        self.resource = resource
        self.amount = amount
        self.stream_cap = stream_cap
        self.phase = phase
        self.note = note


class Barrier(_Op):
    """Barriers with the same ``barrier_id`` and participant set
    rendezvous together."""

    __slots__ = ("barrier_id", "participants", "phase")

    def __init__(self, barrier_id: int, participants: tuple[int, ...],
                 phase: str = ""):
        self.barrier_id = barrier_id
        self.participants = participants
        self.phase = phase


class Acquire(_Op):
    """Enter a critical section on ``lock_id``.

    Takes zero time when the lock is free; otherwise the rank waits (time
    charged to the ``lock`` bucket) until the holder(s) release.  ``shared``
    acquisitions coexist with other shared holders (reader-writer
    semantics); exclusive ones serialize.
    """

    __slots__ = ("lock_id", "shared", "phase", "note")

    def __init__(self, lock_id: str, shared: bool = False, phase: str = "",
                 note: str = ""):
        self.lock_id = lock_id
        self.shared = shared
        self.phase = phase
        self.note = note


class Release(_Op):
    """Leave the critical section entered by the matching :class:`Acquire`."""

    __slots__ = ("lock_id", "phase")

    def __init__(self, lock_id: str, phase: str = ""):
        self.lock_id = lock_id
        self.phase = phase


TraceOp = Delay | Transfer | Barrier | Acquire | Release


@dataclass
class RankTrace:
    """The ordered op list of a single rank."""

    rank: int
    ops: list[TraceOp] = field(default_factory=list)
    #: the rank's typed metric families (a ``repro.telemetry.MetricRegistry``),
    #: created lazily on first ``record()``/``metrics_for()`` — kept here so
    #: counters, gauges and fixed-bucket histograms survive the SPMD run
    #: alongside the ops they describe
    metrics: object | None = field(default=None, compare=False, repr=False)
    #: completed structured spans (``repro.telemetry.Span``), appended by
    #: the rank's tracer as instrumented operations close
    spans: list = field(default_factory=list, compare=False, repr=False)
    #: the rank's span tracer (a ``repro.telemetry.Tracer``), created
    #: lazily on first ``tracer_for()``; holds the open-span stack
    tracer: object | None = field(default=None, compare=False, repr=False)
    #: lock-discipline event log: ``("acquire", lock_id, "r"|"w")``,
    #: ``("release", lock_id, "")`` and ``("write", scope, "")`` tuples in
    #: rank program order, consumed by :mod:`repro.sim.lockcheck`
    lock_events: list = field(default_factory=list, compare=False, repr=False)

    def append(self, op: TraceOp) -> None:
        self.ops.append(op)

    # -- analytic helpers (used by tests and sanity checks) ------------------

    def total_delay_ns(self) -> float:
        return sum(op.ns for op in self.ops if isinstance(op, Delay))

    def total_amount(self, resource: str) -> float:
        return sum(
            op.amount
            for op in self.ops
            if isinstance(op, Transfer) and op.resource == resource
        )

    def lower_bound_ns(self) -> float:
        """Uncontended lower bound: every transfer at its stream cap."""
        t = self.total_delay_ns()
        for op in self.ops:
            if isinstance(op, Transfer):
                t += op.amount / op.stream_cap
        return t
