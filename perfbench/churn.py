"""``meta_churn``: small-object churn on one rank, ``PMEM()`` defaults.

Set-up pre-populates 1024 keys of 64 doubles (512 B) each -- 16 entries per
hash chain on the default 64 buckets.  Each pass is one ``Cluster.run(1)``
of :data:`PASS_OPS` seeded ops: 45% overwrite ``store``, 45% whole
``load``, 10% ``delete``; a load or delete that falls on a deleted key
becomes a ``store``.  After the ops, every deleted key is loaded once and
must raise ``KeyNotFoundError``; then ``SpmdResult.time()`` replays the
pass on the modeled clock.

Timed regions: each ``PMEM.store/load/delete`` call, and the replay (it
counts toward ``ops_per_s``, not toward the latencies).
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro import Cluster, Communicator, PMEM
from repro.errors import KeyNotFoundError, ReproError

from .common import (MIN_SAMPLES, Result, median_setup, note_raw,
                     peak_rss_mib, put_latency, scaled_sum)
from .hostspeed import HostSpeed

NKEYS = 1024
NELEMS = 64
PASS_OPS = 1000
PATH = "/pmem/churn"
STORE, LOAD, DELETE = 0, 1, 2
#: ops between two host-speed probes
PROBE_EVERY = 25


def key(k: int) -> str:
    return f"obj{k:04d}"


def value(k: int, version: int) -> np.ndarray:
    """Version ``version`` of key ``k``: unique per store."""
    return np.arange(NELEMS, dtype=np.float64) + (k * 1e6 + version)


class Churn:
    """A pre-populated cluster plus the model of what each key holds."""

    def __init__(self, speed: HostSpeed | None = None):
        self.cluster = Cluster()
        #: key -> version last stored, or None once deleted
        self.version: list[int | None] = [0] * NKEYS

        def populate(ctx):
            pmem = PMEM()
            pmem.mmap(PATH, Communicator.world(ctx))
            for k in range(NKEYS):
                if speed is not None and k % PROBE_EVERY == 0:
                    speed.probe()
                pmem.store(key(k), value(k, 0))
            pmem.munmap()

        self.cluster.run(1, populate)

    def plan(self, rng: np.random.Generator):
        """The next pass: ``(op, key name, expected array or None)`` per op,
        applied to the model in program order."""
        kinds = rng.choice(3, size=PASS_OPS, p=[0.45, 0.45, 0.10]).tolist()
        keys = rng.integers(0, NKEYS, size=PASS_OPS).tolist()
        ops = []
        for kind, k in zip(kinds, keys):
            v = self.version[k]
            if v is None:
                kind = STORE
            if kind == STORE:
                v = self.version[k] = (v or 0) + 1
                ops.append((STORE, key(k), value(k, v)))
            elif kind == LOAD:
                ops.append((LOAD, key(k), value(k, v)))
            else:
                self.version[k] = None
                ops.append((DELETE, key(k), None))
        return ops

    def deleted(self) -> list[str]:
        return [key(k) for k, v in enumerate(self.version) if v is None]

    def run_pass(self, ops, res: Result, lat: dict[str, list],
                 tracer=None, speed=None):
        """Run one planned pass (call :meth:`plan` first).  Returns the
        ``SpmdResult`` and ``PMEM.stats()`` taken after the ops.  Appends
        ``(wall ns, host-speed stamp)`` per op to ``lat[op]`` (deletes
        under "delete").  A mismatch or an untyped error is a failed op."""
        gone = self.deleted()
        out = {}

        def job(ctx):
            pmem = PMEM()
            pmem.mmap(PATH, Communicator.world(ctx))
            stamp = 0
            for i, (kind, name, data) in enumerate(ops):
                if speed is not None and i % PROBE_EVERY == 0:
                    speed.probe()
                    stamp = speed.stamp()
                if tracer is not None:
                    tracer.set_op(i)
                try:
                    if kind == STORE:
                        t0 = time.perf_counter_ns()
                        pmem.store(name, data)
                        dt = time.perf_counter_ns() - t0
                        lat["store"].append((dt, stamp))
                    elif kind == LOAD:
                        t0 = time.perf_counter_ns()
                        got = pmem.load(name)
                        dt = time.perf_counter_ns() - t0
                        lat["load"].append((dt, stamp))
                        if not np.array_equal(got, data):
                            res.fail(f"load {name}: not the last value stored")
                    else:
                        t0 = time.perf_counter_ns()
                        pmem.delete(name)
                        dt = time.perf_counter_ns() - t0
                        lat["delete"].append((dt, stamp))
                except ReproError as exc:
                    res.fail(f"{name}: {exc!r}")
            if tracer is not None:
                tracer.set_op(None)
            res.attempted += len(ops) + len(gone)
            for name in gone:
                try:
                    pmem.load(name)
                    res.fail(f"load of deleted {name} returned a value")
                except KeyNotFoundError:
                    pass
            out["stats"] = pmem.stats()
            pmem.munmap()

        spmd = self.cluster.run(1, job)
        return spmd, out["stats"]


COUNT_KEYS = ("pmemcpy_store_ops", "pmemcpy_load_ops", "pmemcpy_delete_ops",
              "pmemcpy_logical_store_bytes", "pmemcpy_stored_write_bytes",
              "pmem_write_ops", "persist_calls", "meta_lock_acquires")


def pass_counts(stats: dict, dev_before: dict, dev_after: dict) -> dict:
    """The public counts of one pass: PMEM.stats() telemetry plus the
    device persistence counters' delta."""
    tel = stats["telemetry"]
    out = {k: tel.get(k, 0.0) for k in COUNT_KEYS}
    for k in ("device_stores", "device_store_bytes", "device_persists"):
        out[k] = dev_after[k] - dev_before[k]
    return out


def run(seed: int, seconds: float, import_s: float) -> Result:
    res = Result()
    speed = HostSpeed()
    churn = median_setup(res, import_s, lambda: Churn(speed), speed=speed)
    rng = np.random.default_rng(seed)
    lat: dict[str, list] = {"store": [], "load": [], "delete": []}
    replays = []  # (wall ns, stamp) of each pass's SpmdResult.time()
    modeled0 = counts0 = None
    t_end = time.perf_counter() + seconds
    t_cap = time.perf_counter() + 3 * seconds
    while time.perf_counter() < t_cap and (
            time.perf_counter() < t_end
            or min(len(lat["store"]), len(lat["load"])) < MIN_SAMPLES):
        ops = churn.plan(rng)
        gc.collect()  # the harness's garbage must not be collected in an op
        dev0 = churn.cluster.device.persistence_counters()
        spmd, stats = churn.run_pass(ops, res, lat, speed=speed)
        t0 = time.perf_counter_ns()
        modeled = spmd.time().makespan_ns / 1e9
        replays.append((time.perf_counter_ns() - t0, speed.stamp()))
        if modeled0 is None:
            modeled0 = modeled
            counts0 = pass_counts(
                stats, dev0, churn.cluster.device.persistence_counters())
    res.put("modeled_s", modeled0, 1)
    timed = [x for v in lat.values() for x in v] + replays
    nops = sum(map(len, lat.values()))
    res.put("ops_per_s", nops / (scaled_sum(speed, timed) / 1e9), nops,
            nops / (sum(dt for dt, _ in timed) / 1e9))
    nbytes = NELEMS * 8
    put_latency(res, "store", lat["store"], speed,
                [nbytes] * len(lat["store"]))
    put_latency(res, "load", lat["load"], speed, [nbytes] * len(lat["load"]))
    res.put("peak_rss_MiB", peak_rss_mib())
    note_raw(res, speed)
    res.notes.append(f"passes {len(replays)} of {PASS_OPS} ops")
    res.notes.append("pass-0 counts: " + " ".join(
        f"{k}={int(v)}" for k, v in counts0.items()))
    return res
