"""Shared helpers: metric names, results, percentiles, set-up timing."""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .hostspeed import NOMINAL_NS

#: latency samples per op type a run must collect (10 beyond the p99)
MIN_SAMPLES = 1000

#: where traced runs drop their Chrome traces (relative to the checkout)
OUT_DIR = Path("perfbench") / "out"

#: end-to-end metric units; every workload reports every one of these
END_TO_END = {
    "setup_s": "s",
    "peak_rss_MiB": "MiB",
    "modeled_s": "s",
    "ops_per_s": "1/s",
    "pmcpy_write_MBps": "MB/s",
    "pmcpy_read_MBps": "MB/s",
    "store_p50_ms": "ms",
    "store_p95_ms": "ms",
    "load_p50_ms": "ms",
    "load_p95_ms": "ms",
}

#: per-layer metric units; every workload reports every one of these
#: (zero where a layer is not on the workload's path)
PER_LAYER = {
    "pmemcpy.busy_s": "s",
    "pmemcpy.mmap_calls": "count",
    "pmemcpy.stored_bytes_per_user_byte": "ratio",
    "serial.busy_s": "s",
    "serial.packed_MB": "MB",
    "pmdk.busy_s": "s",
    "pmdk.calls": "count",
    "pmdk.wait_s": "s",
    "pmdk.device_writes_per_store": "ratio",
    "mem.busy_s": "s",
    "mem.calls": "count",
    "mem.write_amp": "ratio",
    "mem.persists_per_store": "ratio",
    "kernel.busy_s": "s",
    "kernel.calls_per_op": "ratio",
    "mpi.busy_s": "s",
    "mpi.wait_s": "s",
    "mpi.calls": "count",
    "baselines.busy_s": "s",
    "sim.replay_busy_s": "s",
    "sim.replay_calls": "count",
    "sim.replay_ops": "count",
    "sim.spmd_busy_s": "s",
    "service.core_busy_s": "s",
    "service.shard_busy_s": "s",
    "service.client_busy_s": "s",
    "service.queue_wait_p50_ms": "ms",
    "service.requests_per_batch": "ratio",
    "service.coalesced_frac": "ratio",
    "telemetry.busy_s": "s",
    "telemetry.calls": "count",
    "untraced_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


@dataclass
class Result:
    """One run's outcome: counts, metric values and their sample counts."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    #: wall metrics before the host-speed scaling (see hostspeed.py)
    raw: dict[str, float] = field(default_factory=dict)
    #: extra human-readable lines (counts, per-layer tables)
    notes: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def put(self, name: str, value: float, samples: int = 1,
            raw: float | None = None) -> None:
        self.values[name] = float(value)
        self.samples[name] = int(samples)
        if raw is not None:
            self.raw[name] = float(raw)


def pct_ms(samples_ns, q: float) -> float:
    """The ``q``-th percentile (0-100, linear) of ns samples, in ms."""
    xs = sorted(samples_ns)
    if not xs:
        return float("nan")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return (xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)) / 1e6


def put_latency(res: Result, op: str, stamped: list[tuple[int, int]],
                speed, nbytes: list[int] | None = None) -> None:
    """Latencies of one op type from ``(wall ns, stamp)`` samples: the p50
    on the reference host, the p95 raw -- the slowest ops are host stalls
    that do not scale with the host factor (see README.md) -- and the p99
    as an unbounded note.  With ``nbytes`` (per sample) also the op's
    median MB/s on the reference host."""
    raw = [dt for dt, _ in stamped]
    scaled = [speed.scale(dt, s) for dt, s in stamped]
    n = len(raw)
    res.put(f"{op}_p50_ms", pct_ms(scaled, 50), n, pct_ms(raw, 50))
    res.put(f"{op}_p95_ms", pct_ms(raw, 95), n, pct_ms(raw, 95))
    res.notes.append(f"{op}_p99_ms {pct_ms(raw, 99):.6g} ms (n={n}, raw; "
                     f"not bounded)")
    if nbytes is not None:
        name = "pmcpy_write_MBps" if op == "store" else "pmcpy_read_MBps"
        res.put(name, statistics.median(b / t * 1e3 for b, t in
                                        zip(nbytes, scaled)), n,
                statistics.median(b / t * 1e3 for b, t in zip(nbytes, raw)))
    if n < MIN_SAMPLES:
        res.fail(f"{op}: only {n} latency samples (< {MIN_SAMPLES})")


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_setup(res: Result, import_s: float, setup, teardown=None,
                 speed=None, repeats: int = 3):
    """Put ``setup_s``: the import time plus the median of ``repeats``
    runs of ``setup()``.  With ``speed``, ``setup()`` probes the host as it
    goes; each sample, less its probes' own time, is put on the reference
    host by the median of those probes.  ``teardown(value)`` (untimed)
    releases each earlier value; returns the last one."""
    raw, scaled, value = [], [], None
    for i in range(repeats):
        if i and teardown is not None:
            teardown(value)
        value = None
        first = speed.stamp() if speed is not None else 0
        t0 = time.perf_counter()
        value = setup()
        probes = speed.samples[first:] if speed is not None else []
        dt = import_s + time.perf_counter() - t0 - sum(probes) / 1e9
        raw.append(dt)
        scaled.append(dt / (statistics.median(probes) / NOMINAL_NS)
                      if probes else dt)
    res.put("setup_s", statistics.median(scaled), repeats,
            statistics.median(raw))
    return value


def scaled_sum(speed, stamped) -> float:
    """Sum of ``(wall, stamp)`` samples on the reference host."""
    return sum(speed.scale(dt, s) for dt, s in stamped)


def note_raw(res: Result, speed) -> None:
    res.notes.append(
        f"host factor {speed.factor():.4f} (median of {len(speed.samples)} "
        f"probes); raw wall metrics: " + " ".join(
            f"{k}={v:.6g}" for k, v in res.raw.items()))


def write_trace(name: str, events: list[dict]) -> tuple[Path, list[str]]:
    """Write a Chrome trace; return its path and the schema violations."""
    from repro.telemetry.export import validate_chrome_trace

    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    errors = validate_chrome_trace(doc)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}.trace.json"
    path.write_text(json.dumps(doc))
    return path, errors


def layer_table(layers: dict[str, dict[str, float]]) -> list[str]:
    rows = ["  layer        busy_s     wait_s      calls"]
    for layer, row in layers.items():
        rows.append(f"  {layer:<10} {row['busy_s']:8.3f} {row['wait_s']:10.3f}"
                    f" {int(row['calls']):10d}")
    return rows

