"""Charged byte-movement primitives.

These are the *only* places the stack converts "bytes moved" into trace ops,
so the cost model is auditable in one file.  Each ``charge_*`` function
records the trace ops for moving ``model_bytes`` (paper-scale) through one
resource; the ``memcpy_*`` composites additionally perform the functional
byte movement on the (scaled-down) device.

The scaling rule (DESIGN.md): *user payload* charges pass
``ctx.model_bytes(real)``; metadata charges pass real byte counts unscaled.
Callers decide which they are.
"""

from __future__ import annotations

import numpy as np

from ..telemetry import metrics_for, record
from .device import PMEMDevice

#: fixed software cost of initiating one copy (pointer math, loop setup)
_COPY_SETUP_NS = 40.0

#: fixed cost of one persist (CLWB loop + fence)
_PERSIST_NS = 200.0

# The charge_* helpers below run on every charged access, so each takes the
# rank's metric registry once and names its families with literals.  The
# ``access.<resource>.bytes`` histograms are the Darshan-style access-size
# signature: log2 buckets, so "many tiny accesses vs few large ones"
# survives cross-rank aggregation.


def charge_pmem_write(ctx, model_bytes: float, note: str = "") -> None:
    spec = ctx.machine.pmem
    ctx.delay(spec.write_latency_ns + _COPY_SETUP_NS, note=note)
    ctx.transfer("pmem_write", model_bytes, spec.stream_write_bw, note=note)
    reg = metrics_for(ctx)
    reg.counter("pmem_write_ops").add(1.0)
    reg.counter("pmem_write_bytes").add(model_bytes)
    reg.histogram("access.pmem_write.bytes").observe(model_bytes)


def charge_pmem_read(ctx, model_bytes: float, note: str = "") -> None:
    spec = ctx.machine.pmem
    ctx.delay(spec.read_latency_ns + _COPY_SETUP_NS, note=note)
    ctx.transfer("pmem_read", model_bytes, spec.stream_read_bw, note=note)
    reg = metrics_for(ctx)
    reg.counter("pmem_read_ops").add(1.0)
    reg.counter("pmem_read_bytes").add(model_bytes)
    reg.histogram("access.pmem_read.bytes").observe(model_bytes)


def charge_persist(ctx, nbytes: int) -> None:
    """Flush ``nbytes`` of stored cachelines to the persistence domain."""
    ctx.delay(_PERSIST_NS, note="persist")
    reg = metrics_for(ctx)
    reg.counter("persist_calls").add(1.0)
    reg.histogram("access.persist.bytes").observe(float(nbytes))


def charge_dram_copy(ctx, model_bytes: float, note: str = "") -> None:
    """A DRAM→DRAM staging copy (read+write through the cache hierarchy)."""
    spec = ctx.machine.dram
    ctx.delay(spec.write_latency_ns + _COPY_SETUP_NS, note=note)
    ctx.transfer("dram", model_bytes, spec.stream_write_bw, note=note)
    reg = metrics_for(ctx)
    reg.counter("dram_copy_ops").add(1.0)
    reg.counter("dram_copy_bytes").add(model_bytes)
    reg.histogram("access.dram.bytes").observe(model_bytes)


def charge_cpu(ctx, model_bytes: float, per_core_bw: float, note: str = "") -> None:
    """CPU work proportional to bytes at ``per_core_bw`` bytes/ns/core.

    Recorded in core-nanoseconds on the ``cpu`` resource; a rank is a single
    thread, so its stream cap is one core.
    """
    if model_bytes <= 0:
        return
    ctx.transfer("cpu", model_bytes / per_core_bw, 1.0, note=note)
    record(ctx, "cpu_core_ns", model_bytes / per_core_bw)


def charge_net(ctx, model_bytes: float, messages: int = 1, note: str = "") -> None:
    """Intra-node MPI transport: per-message software latency plus
    shared-memory pipe bandwidth."""
    spec = ctx.machine.network
    if messages > 0:
        ctx.delay(spec.message_latency_ns * messages, note=note)
        record(ctx, "net_messages", messages)
    ctx.transfer("net", model_bytes, spec.bw_per_pair, note=note)
    record(ctx, "net_bytes", model_bytes)


def charge_pfs_write(ctx, model_bytes: float, note: str = "") -> None:
    spec = ctx.machine.pfs
    ctx.delay(spec.write_latency_ns, note=note)
    ctx.transfer("pfs_write", model_bytes, spec.stream_write_bw, note=note)
    reg = metrics_for(ctx)
    reg.counter("pfs_write_bytes").add(model_bytes)
    reg.histogram("access.pfs_write.bytes").observe(model_bytes)


def charge_pfs_read(ctx, model_bytes: float, note: str = "") -> None:
    spec = ctx.machine.pfs
    ctx.delay(spec.read_latency_ns, note=note)
    ctx.transfer("pfs_read", model_bytes, spec.stream_read_bw, note=note)
    reg = metrics_for(ctx)
    reg.counter("pfs_read_bytes").add(model_bytes)
    reg.histogram("access.pfs_read.bytes").observe(model_bytes)


# ---------------------------------------------------------------------------
# Composite functional + charged copies
# ---------------------------------------------------------------------------

def memcpy_dram_to_pmem(
    ctx,
    device: PMEMDevice,
    offset: int,
    data,
    *,
    model_bytes: float | None = None,
    persist: bool = True,
    note: str = "",
) -> int:
    """Store ``data`` at ``offset`` and charge a PMEM write of
    ``model_bytes`` (defaults to the real length, i.e. metadata scaling)."""
    n = device.store(offset, data)
    charge_pmem_write(ctx, model_bytes if model_bytes is not None else float(n), note=note)
    if persist:
        device.persist(offset, n)
    return n


def memcpy_pmem_to_dram(
    ctx,
    device: PMEMDevice,
    offset: int,
    size: int,
    *,
    model_bytes: float | None = None,
    note: str = "",
) -> np.ndarray:
    """Read ``size`` bytes at ``offset`` and charge a PMEM read of
    ``model_bytes`` (defaults to the real length)."""
    out = device.load(offset, size)
    charge_pmem_read(ctx, model_bytes if model_bytes is not None else float(size), note=note)
    return out
