"""Per-layer CPU attribution, installed from outside the library.

:class:`LayerTracer` wraps the public functions and methods of the
``repro`` packages named in :data:`LAYERS`.  Each wrapped call is one span:
on entry it pushes a frame on a per-thread stack and reads two clocks, the
wall clock (``perf_counter_ns``) and the thread's CPU clock
(``thread_time_ns``); on exit it charges the call's *self* time (its time
minus the time of the wrapped calls it made) to its layer:

- ``busy`` is self thread-CPU time, so eight rank threads sharing one
  interpreter lock never bill the same second twice;
- ``wait`` is self wall time minus busy: lock, barrier and interpreter-lock
  waits, plus sleeping in ``join``/``select``.

Coroutine functions are wrapped step by step (resume to suspend), so a
span never spans an ``await`` and per-thread stacks stay well nested while
asyncio interleaves tasks.

Spans are kept in memory (up to ``max_spans``; the aggregates cover every
call) and exported as a Chrome trace at the end of the run.  Nothing here
changes library behaviour: :meth:`LayerTracer.uninstall` restores every
patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import inspect
import pkgutil
import sys
import threading
from time import perf_counter_ns, thread_time_ns

#: layers, named after the ``src/repro`` packages they cover
LAYERS = ("pmemcpy", "serial", "pmdk", "mem", "kernel", "mpi", "baselines",
          "sim", "service", "telemetry")

#: hot, tiny calls left unwrapped: pass-throughs and getters whose own cost
#: is below the wrapper's (~3 us of CPU per call, see
#: :meth:`LayerTracer.calibrate`).  Their time lands in the caller's span;
#: every one is called from its own layer, so no layer loses time.
SKIP = {
    "mem": {"PMEMDevice.view", "PMEMDevice.load", "ShadowPMEM.view",
            "ShadowPMEM.read"},
    "pmdk": {"PmemPool.view", "PmemPool.region", "RawRegion.view",
             "PmemPool.read_u64", "PmemPool.write_u64", "PmemPool.read",
             "PmemPool.write", "PmemPool.persist", "RawRegion.read",
             "RawRegion.write", "RawRegion.persist", "PmemPool.touch",
             "PmemPool.lane_offset", "fnv1a64"},
    "mpi": {"obj_nbytes"},  # recursive: one span per nested element
    "kernel": {"DaxFS.file_ranges", "DaxMapping.view", "DaxMapping.touch"},
    "pmemcpy": {"dims_key", "Chunk.nbytes", "_RankPoolRegion.view",
                "_RankPoolRegion.touch", "_RankPoolRegion.read",
                "_RankPoolRegion.write", "_RankPoolRegion.persist"},
    "serial": {"Sink.tell", "DramSink.tell", "PmemSink.tell", "Source.tell",
               "DramSource.tell", "PmemSource.tell", "dtype_to_token",
               "dtype_from_token"},
    "telemetry": {"record", "counters_for", "metrics_for", "tracer_for", "trace_mode",
                  "family_of", "Counters.add", "Counter.add", "Gauge.set",
                  "Gauge.add", "MetricRegistry.counter",
                  "MetricRegistry.gauge", "MetricRegistry.histogram",
                  "MetricRegistry.get", "Tracer.begin", "Tracer.end"},
}

#: layers wrapped only at these names (the module surface is too hot:
#: every modeled charge goes through ``Context``)
ONLY = {
    "sim": {"FluidSimulator.run", "ThreadEngine.run", "SpmdResult.time",
            "run_spmd"},
}

#: private entry points that asyncio calls directly (no public caller
#: would otherwise open a span on the event-loop thread)
EXTRA = {
    "service": {"ServiceServer._on_connection", "ServiceServer._drain",
                "ServiceClient._recv_loop", "ServiceClient._issue"},
}

#: dunders worth a span: context managers are how locks and spans run
DUNDERS = {"__enter__", "__exit__", "__call__"}


class _Frame:
    __slots__ = ("sid", "child_wall", "child_cpu", "nchild")

    def __init__(self, sid: int):
        self.sid = sid
        self.child_wall = 0
        self.child_cpu = 0
        self.nchild = 0


class _ThreadState:
    __slots__ = ("stack", "stats", "tid", "op")

    def __init__(self, tid: int):
        #: per-op id stamped on this thread's spans (a benchmark op index
        #: or a wire trace id)
        self.op = None
        self.stack: list[_Frame] = []
        #: (layer, name) -> [calls, busy_ns, wall_self_ns]
        self.stats: dict[tuple[str, str], list[int]] = {}
        self.tid = tid


class LayerTracer:
    """Wraps the layers' entry points; aggregates self time per layer."""

    def __init__(self, *, max_spans: int = 100_000, pid: int = 0):
        self.max_spans = max_spans
        self.pid = pid
        #: (name, layer, tid, start_ns, end_ns, span_id, parent_id, op)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = perf_counter_ns()
        #: per-call wrapper cost (ns) a span bills to itself (``in``) and
        #: to its parent (``out``), on each clock -- see :meth:`calibrate`
        self.cost = {"in_cpu": 0.0, "in_wall": 0.0,
                     "out_cpu": 0.0, "out_wall": 0.0}
        #: span id stamped on spans of threads that set no op of their own
        self.default_op = None
        #: hooks by qualified name, or ``"<layer>:*.<method>"`` for every
        #: class of a layer:
        #: ``before(args, kwargs)`` and ``after(args, kwargs, result)`` run
        #: outside the span, so their cost is never billed to a layer
        self.before: dict[str, object] = {}
        self.after: dict[str, object] = {}

    # ------------------------------------------------------------ per thread

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def set_op(self, op) -> None:
        """Stamp ``op`` on the calling thread's next spans."""
        self._state().op = op

    def _enter(self):
        st = self._state()
        frame = _Frame(next(self._ids))
        st.stack.append(frame)
        return st, frame, perf_counter_ns(), thread_time_ns()

    def _exit(self, st, frame, layer, name, w0, c0):
        c1 = thread_time_ns()
        w1 = perf_counter_ns()
        st.stack.pop()
        dw, dc = w1 - w0, c1 - c0
        s = st.stats.get((layer, name))
        if s is None:
            s = st.stats[(layer, name)] = [0, 0, 0]
        cost, n = self.cost, frame.nchild
        s[0] += 1
        s[1] += dc - frame.child_cpu - n * cost["out_cpu"] - cost["in_cpu"]
        s[2] += dw - frame.child_wall - n * cost["out_wall"] \
            - cost["in_wall"]
        if st.stack:
            parent = st.stack[-1]
            parent.child_wall += dw
            parent.child_cpu += dc
            parent.nchild += 1
            pid = parent.sid
        else:
            pid = 0
        if len(self.spans) < self.max_spans:
            op = st.op if st.op is not None else self.default_op
            self.spans.append((name, layer, st.tid, w0 - self._t0,
                               w1 - self._t0, frame.sid, pid, op))
        else:
            self.dropped += 1

    # ------------------------------------------------------------ wrappers

    @staticmethod
    def _hook(hooks: dict, layer: str, name: str):
        return hooks.get(name) \
            or hooks.get(f"{layer}:*.{name.rsplit('.', 1)[-1]}")

    def _wrap_sync(self, fn, layer: str, name: str):
        state, leave = self._state, self._exit
        ids = self._ids
        before = self._hook(self.before, layer, name)
        after = self._hook(self.after, layer, name)

        @functools.wraps(fn)
        def traced(*args, **kw):
            st = state()
            if before is not None:
                before(args, kw)
            frame = _Frame(next(ids))
            st.stack.append(frame)
            w0, c0 = perf_counter_ns(), thread_time_ns()
            try:
                result = fn(*args, **kw)
            finally:
                leave(st, frame, layer, name, w0, c0)
            if after is not None:
                after(args, kw, result)
            return result

        return traced

    def _wrap_async(self, fn, layer: str, name: str):
        enter, leave = self._enter, self._exit

        class _Steps:
            __slots__ = ("coro",)

            def __init__(self, coro):
                self.coro = coro

            def __await__(self):
                coro, send, thrown = self.coro, None, None
                while True:
                    st, frame, w0, c0 = enter()
                    try:
                        if thrown is not None:
                            yielded = coro.throw(thrown)
                        else:
                            yielded = coro.send(send)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave(st, frame, layer, name, w0, c0)
                    try:
                        send, thrown = (yield yielded), None
                    except BaseException as exc:  # re-thrown into coro
                        send, thrown = None, exc

        @functools.wraps(fn)
        async def traced(*args, **kw):
            return await _Steps(fn(*args, **kw))

        return traced

    def _wrap(self, fn, layer, name):
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(fn, layer, name)
        return self._wrap_sync(fn, layer, name)

    # ------------------------------------------------------------ install

    def calibrate(self, n: int = 20_000, rounds: int = 5) -> dict:
        """Measure the wrapper's own cost, as a profiler measures its bias:
        a parent making ``n`` calls to a wrapped no-op against one making
        ``n`` raw calls.  The per-call difference is what a span bills to
        its parent; the no-op's own self time is what it bills to itself.
        :meth:`_exit` subtracts both, so a layer's busy time is its own
        code's, however many boundaries sit beneath it."""
        best: dict[str, float] = {}
        for _ in range(rounds):
            probe = LayerTracer()
            leaf = probe._wrap_sync(_noop, "cal", "leaf")

            def raw():
                for _ in range(n):
                    _noop()

            def wrapped():
                for _ in range(n):
                    leaf()

            probe._wrap_sync(raw, "cal", "raw")()
            probe._wrap_sync(wrapped, "cal", "wrapped")()
            t = probe.totals()
            got = {
                "in_cpu": t[("cal", "leaf")][1] / n,
                "in_wall": t[("cal", "leaf")][2] / n,
                "out_cpu": (t[("cal", "wrapped")][1]
                            - t[("cal", "raw")][1]) / n,
                "out_wall": (t[("cal", "wrapped")][2]
                             - t[("cal", "raw")][2]) / n,
            }
            for k, v in got.items():
                best[k] = min(best.get(k, v), v)
        self.cost = {k: max(0.0, v) for k, v in best.items()}
        return self.cost

    def overhead_cpu_ns(self) -> float:
        """Estimated CPU the wrappers themselves took."""
        calls = sum(v[0] for v in self.totals().values())
        return calls * (self.cost["in_cpu"] + self.cost["out_cpu"])

    def install(self, layers=LAYERS) -> "LayerTracer":
        """Patch every layer's entry points (idempotent per tracer)."""
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in layers:
            for mod in _layer_modules(layer):
                for attr, obj in list(vars(mod).items()):
                    if getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isclass(obj):
                        self._patch_class(obj, layer, replaced)
                    elif inspect.isfunction(obj) and self._wanted(
                            layer, attr, attr):
                        new = self._wrap(obj, layer, attr)
                        replaced[id(obj)] = (obj, new)
        # module-level functions are imported by name into other modules:
        # rebind every reference across the package
        for mod in [m for n, m in sys.modules.items()
                    if n == "repro" or n.startswith("repro.")]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def _wanted(self, layer: str, attr: str, qual: str) -> bool:
        if layer in ONLY:
            return qual in ONLY[layer]
        if qual in SKIP.get(layer, ()):
            return False
        if qual in EXTRA.get(layer, ()):
            return True
        return not attr.startswith("_") or attr in DUNDERS

    def _patch_class(self, cls, layer, replaced) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if not self._wanted(layer, attr, qual):
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, layer, qual))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, qual))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, layer, qual)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def totals(self) -> dict[tuple[str, str], list[int]]:
        """``(layer, name) -> [calls, busy_ns, wall_self_ns]`` over threads."""
        out: dict[tuple[str, str], list[int]] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, (n, busy, wall) in list(st.stats.items()):
                acc = out.setdefault(key, [0, 0, 0])
                acc[0] += n
                acc[1] += busy
                acc[2] += wall
        return out

    def chrome_events(self) -> list[dict]:
        """The spans as Chrome-trace complete (``X``) events, in us."""
        return [
            {"name": name, "cat": layer, "ph": "X", "pid": self.pid,
             "tid": tid, "ts": start / 1e3, "dur": (end - start) / 1e3,
             "args": {"span": sid, "parent": parent, "op": op}}
            for name, layer, tid, start, end, sid, parent, op in self.spans
        ]


def by_layer(totals: dict) -> dict[str, dict[str, float]]:
    """Fold ``totals()`` into ``{layer: {calls, busy_s, wait_s}}``."""
    out = {layer: {"calls": 0, "busy_s": 0.0, "wait_s": 0.0}
           for layer in LAYERS}
    for (layer, _name), (n, busy, wall) in totals.items():
        row = out[layer]
        row["calls"] += n
        row["busy_s"] += busy / 1e9
        row["wait_s"] += (wall - busy) / 1e9
    for row in out.values():  # calibration noise must not go negative
        row["busy_s"] = max(0.0, row["busy_s"])
        row["wait_s"] = max(0.0, row["wait_s"])
    return out


def count_work(tracer: LayerTracer, counts: dict) -> None:
    """Count work at two layer boundaries: bytes the serializers pack and
    trace ops the fluid simulator replays."""
    def on_pack(args, kw):  # Serializer.pack(self, ctx, name, array, sink)
        counts["packed_bytes"] = counts.get("packed_bytes", 0) \
            + int(getattr(args[3], "nbytes", 0))

    def on_replay(args, kw):  # FluidSimulator.run(self, traces)
        counts["replay_ops"] = counts.get("replay_ops", 0) \
            + sum(len(t.ops) for t in args[1])

    tracer.before["serial:*.pack"] = on_pack
    tracer.before["FluidSimulator.run"] = on_replay


def _noop():
    return None


def _layer_modules(layer: str):
    pkg = importlib.import_module(f"repro.{layer}")
    yield pkg
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name == "__main__":
            continue
        yield importlib.import_module(f"repro.{layer}.{info.name}")
