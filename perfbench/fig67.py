"""``fig67_8p``: the paper's Fig. 6/7 cell at 8 ranks, all five series.

One pass writes and then reads back (``read_job(verify=True)``) the
trimmed domain ``Domain3D(nvars=4, axis_scale=20)`` under ADIOS, NetCDF,
pNetCDF, PMCPY-A and PMCPY-B, each on a fresh :class:`Cluster`.  The seed
orders the series inside each pass, so host drift lands on all of them.

Timed region: ``Cluster.run`` plus ``SpmdResult.time()`` of each job.  The
pMEMCPY series are measured by job throughput; the baselines by job
throughput (``ops_per_s``) and by the latency of each rank's driver
``write``/``read`` call, the library call a rank makes per variable.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro import Cluster
from repro.baselines.base import _DRIVERS
from repro.errors import ReproError
from repro.harness.experiment import PAPER_LIBRARIES
from repro.units import MiB
from repro.workloads import Domain3D, read_job, write_job

from .common import (MIN_SAMPLES, Result, median_setup, note_raw,
                     peak_rss_mib, put_latency, scaled_sum)
from .hostspeed import HostSpeed

NPROCS = 8
WORKLOAD = Domain3D(nvars=4, axis_scale=20)
PMCPY = ("PMCPY-A", "PMCPY-B")
BASELINES = ("ADIOS", "NetCDF", "pNetCDF")
#: sum of the committed BENCH_PERF.json fig6 + fig7 ``.8p`` modeled_ns
REFERENCE_MODELED_S = 55.357
REFERENCE_TOL = 1e-3
#: host-speed probes after each job
PROBES_PER_JOB = 3


def _cluster(workload: Domain3D) -> Cluster:
    capacity = max(64 * MiB, 8 * workload.functional_total_bytes)
    return Cluster(scale=workload.scale, pmem_capacity=capacity)


class CallClock:
    """Times every baseline driver's ``write``/``read`` call while
    installed, as ``(wall ns, host-speed stamp)``.  The pMEMCPY series
    are measured by their job throughput instead (``pmcpy_*_MBps``)."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.samples: dict[str, list[tuple[int, int]]] = {
            "store": [], "load": []}
        self._saved: list[tuple[type, str, object]] = []

    def install(self) -> "CallClock":
        for cls in {_DRIVERS[PAPER_LIBRARIES[lib][0]] for lib in BASELINES}:
            for method, op in (("write", "store"), ("read", "load")):
                orig = cls.__dict__[method]
                self._saved.append((cls, method, orig))
                setattr(cls, method, self._timed(orig, self.samples[op]))
        return self

    def _timed(self, fn, sink: list):
        stamp = self.speed.stamp

        def timed(*args, **kw):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kw)
            finally:
                sink.append((time.perf_counter_ns() - t0, stamp()))
        return timed

    def uninstall(self) -> None:
        for cls, method, orig in reversed(self._saved):
            setattr(cls, method, orig)
        self._saved.clear()


def run_job(cl: Cluster, library: str, direction: str,
            workload: Domain3D = WORKLOAD, nprocs: int = NPROCS):
    """One job, timed: returns (wall ns, modeled s)."""
    driver, kw = PAPER_LIBRARIES[library]
    body = write_job if direction == "write" else read_job
    t0 = time.perf_counter_ns()
    res = cl.run(nprocs, lambda ctx: body(ctx, workload, driver,
                                          "/pmem/eval", kw))
    modeled = res.time().makespan_ns / 1e9
    return time.perf_counter_ns() - t0, modeled


def run_pass(order, res: Result, *, on_cluster=None, speed=None):
    """Write then read every series once; returns
    ``{library: {direction: (wall_ns, modeled_s, stamp)}}`` and counts
    failures (a job that raises, e.g. a read-back mismatch, is one failed
    op).  With ``speed``, probes the host after each job."""
    out: dict[str, dict[str, tuple[int, float]]] = {}
    for library in order:
        cl = _cluster(WORKLOAD)
        out[library] = {}
        for direction in ("write", "read"):
            res.attempted += 1
            stamp = speed.stamp() if speed is not None else 0
            try:
                out[library][direction] = (
                    *run_job(cl, library, direction), stamp)
            except ReproError as exc:
                res.fail(f"{library} {direction}: {exc!r}")
                break
            finally:
                if speed is not None:
                    speed.probe(PROBES_PER_JOB)
        if on_cluster is not None:
            on_cluster(library, cl)
    return out


def check_pass(cell: dict, res: Result) -> None:
    """The paper's 8-rank orderings and the modeled cross-check."""
    def m(lib, d):
        return cell[lib][d][1]

    checks = []
    for d in ("write", "read"):
        checks += [
            (f"PMCPY-A {d} < ADIOS {d}", m("PMCPY-A", d) < m("ADIOS", d)),
            (f"ADIOS {d} < NetCDF {d}", m("ADIOS", d) < m("NetCDF", d)),
            (f"ADIOS {d} < pNetCDF {d}", m("ADIOS", d) < m("pNetCDF", d)),
        ]
    checks.append(("PMCPY-B write > ADIOS write",
                   m("PMCPY-B", "write") > m("ADIOS", "write")))
    total = sum(m(lib, d) for lib in cell for d in ("write", "read"))
    checks.append((f"modeled {total:.3f} s == {REFERENCE_MODELED_S} s",
                   abs(total / REFERENCE_MODELED_S - 1) <= REFERENCE_TOL))
    for what, ok in checks:
        res.attempted += 1
        if not ok:
            res.fail(f"paper check failed: {what}")


def warm_up(speed: HostSpeed | None = None) -> None:
    """Every series once at 2 ranks on a tiny domain: imports, first-call
    paths and allocator pools are warm before the timed passes."""
    tiny = Domain3D(nvars=1, axis_scale=40)
    for library in PAPER_LIBRARIES:
        cl = _cluster(tiny)
        for direction in ("write", "read"):
            run_job(cl, library, direction, tiny, 2)
            if speed is not None:
                speed.probe(PROBES_PER_JOB)


def complete(cell: dict) -> bool:
    return all(len(v) == 2 for v in cell.values()) \
        and len(cell) == len(PAPER_LIBRARIES)


def run(seed: int, seconds: float, import_s: float) -> Result:
    res = Result()
    speed = HostSpeed()
    median_setup(res, import_s, lambda: warm_up(speed), speed=speed)
    rng = np.random.default_rng(seed)
    libs = list(PAPER_LIBRARIES)
    clock = CallClock(speed).install()
    walls: dict[str, list] = {"write": [], "read": [], "base": []}
    modeled: list[float] = []
    passes = 0
    counts: dict[str, int] = {}

    def on_cluster(library, cl):
        # a fresh cluster per series: PMCPY-A's counts repeat exactly
        if library == "PMCPY-A" and not counts:
            counts.update(cl.device.persistence_counters())

    t_end = time.perf_counter() + seconds
    t_cap = time.perf_counter() + 3 * seconds
    try:
        while passes == 0 or time.perf_counter() < t_cap and (
                time.perf_counter() < t_end or min(
                    map(len, clock.samples.values())) < MIN_SAMPLES):
            order = [libs[i] for i in rng.permutation(len(libs))]
            cell = run_pass(order, res, speed=speed, on_cluster=on_cluster)
            gc.collect()  # untimed: peak RSS must not hang on GC timing
            passes += 1
            if not complete(cell):
                continue
            check_pass(cell, res)
            modeled.append(sum(job[1] for v in cell.values()
                               for job in v.values()))
            for lib, dirs in cell.items():
                for d, (wall, _m, stamp) in dirs.items():
                    walls[d if lib in PMCPY else "base"].append(
                        (wall, stamp))
    finally:
        clock.uninstall()
    if not modeled:
        res.fail("no complete pass")
        return res
    res.put("modeled_s", float(np.median(modeled)), len(modeled))
    # the baselines' calls per second of their own jobs: kept apart from
    # pmcpy_*_MBps so a gain on one that costs the other shows
    calls = len(walls["base"]) * NPROCS * WORKLOAD.nvars
    res.put("ops_per_s", calls / (scaled_sum(speed, walls["base"]) / 1e9),
            calls, calls / (sum(dt for dt, _ in walls["base"]) / 1e9))
    for d in ("write", "read"):
        nbytes = len(walls[d]) * WORKLOAD.functional_total_bytes
        res.put(f"pmcpy_{d}_MBps",
                nbytes / 1e6 / (scaled_sum(speed, walls[d]) / 1e9),
                len(walls[d]),
                nbytes / 1e6 / (sum(dt for dt, _ in walls[d]) / 1e9))
    put_latency(res, "store", clock.samples["store"], speed)
    put_latency(res, "load", clock.samples["load"], speed)
    res.put("peak_rss_MiB", peak_rss_mib())
    note_raw(res, speed)
    res.notes.append(f"passes {passes}; each pass = 10 jobs x {NPROCS} ranks;"
                     f" modeled per pass {modeled[0]:.6f} s")
    res.notes.append("PMCPY-A pass-0 device counts: " + " ".join(
        f"{k}={v}" for k, v in counts.items()))
    return res
