"""The ``service_live`` server process.

    python3 perfbench/serve.py --trace 0|1 --report FILE

Starts the real asyncio :class:`ServiceServer` with the default
:class:`ServiceConfig` on a loopback port, prints ``PORT <n>``, and serves
until SIGTERM.  It then writes a JSON report to FILE: peak RSS and CPU of
this process, the shards' device persistence counters and, with
``--trace 1``, the per-layer totals, the queue waits and the spans of a
:class:`~perfbench.layers.LayerTracer` installed in this process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))


def queue_wait_hooks(tracer, waits: list[int]) -> None:
    """Time each request from ``ServiceCore.accept`` to the start of the
    shard batch that carries it; stamp spans with the wire trace id."""
    accepted: dict[int, int] = {}

    def on_accept(args, kw, env):
        accepted[env.trace_id] = time.perf_counter_ns()
        tracer.set_op(env.trace_id)

    def on_batch(args, kw):
        now = time.perf_counter_ns()
        envs = args[2]
        for env in envs:
            t = accepted.pop(env.trace_id, None)
            if t is not None:
                waits.append(now - t)
        tracer.set_op([env.trace_id for env in envs])

    tracer.after["ServiceCore.accept"] = on_accept
    tracer.before["ServiceCore.execute_batch"] = on_batch


async def serve(trace: bool, report: Path) -> None:
    from repro.service.server import ServiceServer

    from perfbench.layers import LayerTracer, count_work

    tracer, waits, counts = None, [], {}
    if trace:  # before start: asyncio holds the handlers start() binds
        tracer = LayerTracer(pid=2)
        tracer.calibrate()
        queue_wait_hooks(tracer, waits)
        count_work(tracer, counts)
        tracer.install()
    cpu0 = time.process_time_ns()
    server = await ServiceServer().start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"PORT {server.port}", flush=True)
    await stop.wait()
    await server.close()
    cpu = time.process_time_ns() - cpu0
    doc = {
        "peak_rss_MiB":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_ns": cpu,
        "devices": [s.cluster.device.persistence_counters()
                    for s in server.core.shards],
    }
    if tracer is not None:
        tracer.uninstall()
        doc["totals"] = [[layer, name, *vals] for (layer, name), vals
                         in tracer.totals().items()]
        doc["overhead_cpu_ns"] = tracer.overhead_cpu_ns()
        doc["counts"] = {**counts, "queue_waits_ns": waits}
        doc["events"] = tracer.chrome_events()
    report.write_text(json.dumps(doc))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", required=True, type=Path)
    ns = ap.parse_args()
    asyncio.run(serve(bool(ns.trace), ns.report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
