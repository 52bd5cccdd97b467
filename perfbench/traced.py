"""The traced run (``--trace 1``): per-layer metrics of one workload.

Each workload runs a fixed amount of work -- :data:`PAIRS` units, each
once untraced and once traced, alternating so host drift hits both sides
alike -- so counts repeat exactly for a seed.  The tracer is installed
only around the traced units; their process CPU is the base of
``untraced_frac``, and traced over untraced wall gives
``trace_overhead_frac``.  Spans go to ``perfbench/out/<workload>.trace.json``
(Chrome trace format, schema-checked with
``repro.telemetry.export.validate_chrome_trace``).
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from .common import PER_LAYER, Result, layer_table, pct_ms, write_trace
from .layers import LayerTracer, by_layer, count_work

#: untraced/traced unit pairs per run
PAIRS = 3
#: requests per connection in one service_live unit
SERVICE_UNIT_OPS = 100

TEL_KEYS = ("pmemcpy_store_ops", "pmemcpy_load_ops", "pmemcpy_delete_ops",
            "pmemcpy_logical_store_bytes", "pmemcpy_stored_write_bytes",
            "pmem_write_ops")
DEV_KEYS = ("device_stores", "device_store_bytes", "device_persists")


def _add(acc: dict, src: dict, keys, sign: float = 1.0) -> None:
    for k in keys:
        acc[k] = acc.get(k, 0.0) + sign * float(src.get(k, 0.0))


def _busy_ns(totals: dict) -> float:
    return sum(row["busy_s"] for row in by_layer(totals).values()) * 1e9


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def assemble(res: Result, totals: dict, counts: dict, *, ops: int,
             client_totals: dict | None = None) -> None:
    """Fold tracer totals and public counts into the per-layer metrics."""
    layers = by_layer(totals)
    for layer in ("pmemcpy", "serial", "pmdk", "mem", "kernel", "mpi",
                  "baselines", "telemetry"):
        res.put(f"{layer}.busy_s", layers[layer]["busy_s"])
    for layer in ("pmdk", "mpi"):
        res.put(f"{layer}.wait_s", layers[layer]["wait_s"])
    for layer in ("pmdk", "mem", "mpi", "telemetry"):
        res.put(f"{layer}.calls", layers[layer]["calls"])

    def busy(layer, pred):
        return sum(v[1] for (ly, name), v in totals.items()
                   if ly == layer and pred(name)) / 1e9

    def calls(layer, pred):
        return sum(v[0] for (ly, name), v in totals.items()
                   if ly == layer and pred(name))

    res.put("pmemcpy.mmap_calls", calls("pmemcpy", lambda n: n == "PMEM.mmap"))
    stores = counts.get("pmemcpy_store_ops", 0.0)
    logical = counts.get("pmemcpy_logical_store_bytes", 0.0)
    res.put("pmemcpy.stored_bytes_per_user_byte",
            _ratio(counts.get("pmemcpy_stored_write_bytes", 0.0), logical))
    res.put("serial.packed_MB", counts.get("packed_bytes", 0) / 1e6)
    res.put("pmdk.device_writes_per_store",
            _ratio(counts.get("pmem_write_ops", 0.0), stores))
    res.put("mem.write_amp",
            _ratio(counts.get("device_store_bytes", 0.0), logical))
    res.put("mem.persists_per_store",
            _ratio(counts.get("device_persists", 0.0), stores))
    res.put("kernel.calls_per_op", _ratio(layers["kernel"]["calls"], ops))
    replay = lambda n: n == "FluidSimulator.run"  # noqa: E731
    res.put("sim.replay_busy_s", busy("sim", replay))
    res.put("sim.replay_calls", calls("sim", replay))
    res.put("sim.replay_ops", counts.get("replay_ops", 0))
    res.put("sim.spmd_busy_s", busy("sim", lambda n: not replay(n)))
    shard = lambda n: n.startswith("ShardExecutor.")  # noqa: E731
    res.put("service.core_busy_s", busy("service", lambda n: not shard(n)))
    res.put("service.shard_busy_s", busy("service", shard))
    res.put("service.client_busy_s",
            by_layer(client_totals)["service"]["busy_s"]
            if client_totals else 0.0)
    waits = counts.get("queue_waits_ns") or []
    res.put("service.queue_wait_p50_ms",
            pct_ms(waits, 50) if waits else 0.0, len(waits))
    res.put("service.requests_per_batch",
            _ratio(counts.get("shard_requests", 0), counts.get("batches", 0)))
    res.put("service.coalesced_frac",
            _ratio(counts.get("coalesced", 0), counts.get("stores", 0)))
    res.notes.extend(layer_table(by_layer(totals)))
    if client_totals:
        res.notes.append("  client process:")
        res.notes.extend(layer_table(by_layer(client_totals)))
    res.notes.append("counts: " + " ".join(
        f"{k}={int(v)}" for k, v in sorted(counts.items())
        if not isinstance(v, list)))


def _finish(res: Result, name: str, events: list[dict], *, busy: float,
            cpu: float, traced_wall: float, plain_wall: float) -> None:
    """``busy``: layer busy ns; ``cpu``: process CPU ns of the traced
    units minus the wrappers' own (calibrated) cost."""
    res.put("untraced_frac", 1.0 - _ratio(busy, cpu))
    res.put("trace_overhead_frac", traced_wall / plain_wall - 1.0, PAIRS)
    path, errors = write_trace(name, events)
    for e in errors[:5]:
        res.fail(f"chrome trace: {e}")
    res.notes.append(f"chrome trace {path} ({len(events)} spans, "
                     f"{len(errors)} schema violations)")


# --------------------------------------------------------------- fig67_8p

def _fig67(seed: int) -> Result:
    from . import fig67

    res = Result()
    fig67.warm_up()
    tracer = LayerTracer(pid=1)
    tracer.calibrate()
    counts: dict = {}
    count_work(tracer, counts)
    rng = np.random.default_rng(seed)
    libs = list(fig67.PAPER_LIBRARIES)
    plain = traced = cpu = 0
    ops = 0
    for i in range(PAIRS):
        order = [libs[j] for j in rng.permutation(len(libs))]
        tracer.default_op = i
        t0 = time.perf_counter_ns()
        fig67.run_pass(order, Result())
        plain += time.perf_counter_ns() - t0
        tracer.install()
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        try:
            fig67.run_pass(order, res)
        finally:
            traced += time.perf_counter_ns() - t0
            cpu += time.process_time_ns() - c0
            tracer.uninstall()
        ops += 2 * len(order) * fig67.NPROCS * fig67.WORKLOAD.nvars
    _fig67_counts(counts, res)
    assemble(res, tracer.totals(), counts, ops=ops)
    _finish(res, "fig67_8p", tracer.chrome_events(),
            busy=_busy_ns(tracer.totals()),
            cpu=cpu - tracer.overhead_cpu_ns(),
            traced_wall=traced, plain_wall=plain)
    return res


def _fig67_counts(counts: dict, res: Result) -> None:
    """One more, untimed pass of the pMEMCPY series for their public
    counts: ``PMEM.stats()`` as each rank unmaps (a deep copy per rank,
    too costly to run inside the timed traced passes) and the device
    persistence counters of each fresh cluster."""
    from repro.pmemcpy import PMEM

    from . import fig67

    munmap = PMEM.__dict__["munmap"]

    def counted_munmap(self):
        _add(counts, self.stats()["telemetry"], TEL_KEYS)
        return munmap(self)

    def on_cluster(library, cl):
        _add(counts, cl.device.persistence_counters(), DEV_KEYS)

    PMEM.munmap = counted_munmap
    try:
        fig67.run_pass(fig67.PMCPY, res, on_cluster=on_cluster)
    finally:
        PMEM.munmap = munmap


# --------------------------------------------------------------- meta_churn

def _churn(seed: int) -> Result:
    from . import churn

    res = Result()
    plain_store, traced_store = churn.Churn(), churn.Churn()
    tracer = LayerTracer(pid=1)
    tracer.calibrate()
    counts: dict = {}
    count_work(tracer, counts)
    rng_plain, rng_traced = (np.random.default_rng(seed),
                             np.random.default_rng(seed))
    plain = traced = cpu = 0
    ops = 0
    for _ in range(PAIRS):
        lat = {"store": [], "load": [], "delete": []}
        t0 = time.perf_counter_ns()
        spmd, _stats = plain_store.run_pass(
            plain_store.plan(rng_plain), Result(), lat)
        spmd.time()
        plain += time.perf_counter_ns() - t0
        todo = traced_store.plan(rng_traced)
        dev0 = traced_store.cluster.device.persistence_counters()
        tracer.install()
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        try:
            spmd, stats = traced_store.run_pass(todo, res, lat,
                                                tracer=tracer)
            spmd.time()
        finally:
            traced += time.perf_counter_ns() - t0
            cpu += time.process_time_ns() - c0
            tracer.uninstall()
        _add(counts, stats["telemetry"], TEL_KEYS)
        _add(counts, traced_store.cluster.device.persistence_counters(),
             DEV_KEYS)
        _add(counts, dev0, DEV_KEYS, -1.0)
        ops += len(todo)
    assemble(res, tracer.totals(), counts, ops=ops)
    _finish(res, "meta_churn", tracer.chrome_events(),
            busy=_busy_ns(tracer.totals()),
            cpu=cpu - tracer.overhead_cpu_ns(),
            traced_wall=traced, plain_wall=plain)
    return res


# --------------------------------------------------------------- service_live

def _service(seed: int) -> Result:
    from . import service_live as svc

    res = Result()
    loop = asyncio.new_event_loop()
    loads = []
    try:
        loads.append(svc.start(False, "service_plain", loop, seed, res))
        loads.append(svc.start(True, "service_traced", loop, seed, res))
        plain_load, traced_load = loads
        tracer = LayerTracer(pid=1)
        tracer.calibrate()
        plain = traced = cpu = 0
        for i in range(PAIRS):
            t0 = time.perf_counter_ns()
            plain_load.run_ops(seed + i, res, SERVICE_UNIT_OPS)
            plain += time.perf_counter_ns() - t0
            tracer.install()
            c0, t0 = time.process_time_ns(), time.perf_counter_ns()
            try:
                traced_load.run_ops(seed + i, res, SERVICE_UNIT_OPS)
            finally:
                traced += time.perf_counter_ns() - t0
                cpu += time.process_time_ns() - c0
                tracer.uninstall()
        st1 = traced_load.stats()
        reports = [svc.shutdown(loads.pop()) for _ in range(len(loads))]
    finally:
        for load in loads:
            load.server.kill()
        loop.close()
    # the traced server is traced for its whole life (pre-store, warm-up
    # and the traced units), so its counts cover the same span
    server = reports[0]  # popped last-first: the traced server
    counts: dict = dict(server["counts"])
    for shard in st1["shards"]:
        _add(counts, shard["telemetry"], TEL_KEYS)
    for dev in server["devices"]:
        _add(counts, dev, DEV_KEYS)
    counts["batches"] = sum(s["batches"] for s in st1["shards"])
    ops = counts["shard_requests"] = sum(s["requests"] for s in st1["shards"])
    counts["coalesced"] = st1["counters"].get("service.store.coalesced", 0)
    counts["stores"] = counts["pmemcpy_store_ops"]
    server_totals = {(ly, name): [n, busy, wall]
                     for ly, name, n, busy, wall in server["totals"]}
    assemble(res, server_totals, counts, ops=ops,
             client_totals=tracer.totals())
    _finish(res, "service_live",
            tracer.chrome_events() + server["events"],
            busy=_busy_ns(tracer.totals()) + _busy_ns(server_totals),
            cpu=cpu - tracer.overhead_cpu_ns()
            + server["cpu_ns"] - server["overhead_cpu_ns"],
            traced_wall=traced, plain_wall=plain)
    return res


def run(workload: str, seed: int) -> Result:
    res = {"fig67_8p": _fig67, "meta_churn": _churn,
           "service_live": _service}[workload](seed)
    missing = set(PER_LAYER) - set(res.values)
    for name in sorted(missing):
        res.put(name, 0.0)
    return res
