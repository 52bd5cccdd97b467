"""``service_live``: the real asyncio service, measured from its clients.

The server (``perfbench/serve.py``: :class:`ServiceServer`, default
:class:`ServiceConfig`) runs in its own process on loopback.  This process
drives it in a closed loop over :data:`CONNECTIONS` connections: each caller
is a checkpointing rank that waits for its reply before the next request.
The mix follows ``service smoke``: 32 pre-stored keys of 4 KiB, 50%
``store``, 25% whole ``load``, 25% block ``load``.  Each connection owns
half the keys, so every load has one right answer: the value of the last
store that connection had acknowledged.

Timed region: each client ``await``.
"""

from __future__ import annotations

import asyncio
import json
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .common import (MIN_SAMPLES, OUT_DIR, Result, median_setup, note_raw,
                     put_latency)
from .hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
CONNECTIONS = 2
NKEYS = 32
NELEMS = 512
BLOCK = (128, 256)  # offsets, dims of a block load
WARMUP_OPS = 40
#: seconds a server process may take to start listening
START_TIMEOUT_S = 60
#: seconds between host-speed probes (each blocks the loop ~1 ms)
PROBE_PERIOD_S = 0.1


def key(k: int) -> str:
    return f"ckpt/{k:02d}"


def value(k: int, version: int) -> np.ndarray:
    return np.arange(NELEMS, dtype=np.float64) + (k * 1e6 + version)


class Server:
    """A ``serve.py`` child process; :meth:`stop` returns its report."""

    def __init__(self, trace: bool, name: str):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.report = OUT_DIR / f"{name}.server.json"
        self.report.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "--trace",
             str(int(trace)), "--report", str(self.report)],
            stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.kill()
            raise RuntimeError(f"service failed to start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> dict:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        return json.loads(self.report.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Load:
    """Connections, per-connection key ownership and the store model."""

    def __init__(self, server: Server, loop: asyncio.AbstractEventLoop):
        from repro.service.server import ServiceClient

        self.server = server
        self.loop = loop
        self.version = [0] * NKEYS
        #: per op type: (wall ns, host-speed stamp) and bytes moved
        self.lat: dict[str, list[tuple[int, int]]] = {"store": [], "load": []}
        self.nbytes: dict[str, list[int]] = {"store": [], "load": []}
        self.speed = HostSpeed()

        async def connect():
            admin = await ServiceClient.connect("127.0.0.1", server.port)
            conns = [await ServiceClient.connect(
                "127.0.0.1", server.port, trace_base=cid + 1)
                for cid in range(CONNECTIONS)]
            for k in range(NKEYS):
                await admin.store(key(k), value(k, 0))
            return admin, conns

        self.admin, self.conns = loop.run_until_complete(connect())

    async def caller(self, cid: int, rng, res: Result, done,
                     record: bool) -> None:
        """One closed-loop rank on connection ``cid`` until ``done()``."""
        client = self.conns[cid]
        mine = [k for k in range(NKEYS) if k % CONNECTIONS == cid]
        lo, n = BLOCK
        while not done(cid):
            k = mine[int(rng.integers(len(mine)))]
            u = rng.random()
            res.attempted += 1
            try:
                if u < 0.5:
                    v = self.version[k] + 1
                    arr = value(k, v)
                    t0 = time.perf_counter_ns()
                    await client.store(key(k), arr)
                    dt = time.perf_counter_ns() - t0
                    self.version[k] = v
                    op, nbytes = "store", arr.nbytes
                else:
                    whole = u < 0.75
                    t0 = time.perf_counter_ns()
                    if whole:
                        got = await client.load(key(k))
                    else:
                        got = await client.load(key(k), offsets=(lo,),
                                                dims=(n,))
                    dt = time.perf_counter_ns() - t0
                    want = value(k, self.version[k])
                    if not whole:
                        want = want[lo:lo + n]
                    if not np.array_equal(got, want):
                        res.fail(f"load {key(k)}: not the last "
                                 f"acknowledged store")
                    op, nbytes = "load", got.nbytes
            except Exception as exc:  # noqa: BLE001 - counted, never fatal
                res.fail(f"{key(k)}: {exc!r}")
                continue
            if record:
                self.lat[op].append((dt, self.speed.stamp()))
                self.nbytes[op].append(nbytes)

    def _gather(self, seed: int, res: Result, done, record: bool) -> None:
        rngs = [np.random.default_rng([seed, cid])
                for cid in range(CONNECTIONS)]

        async def callers():
            await asyncio.gather(*[
                self.caller(cid, rngs[cid], res, done, record)
                for cid in range(CONNECTIONS)])

        self.loop.run_until_complete(callers())

    def drive(self, seed: int, res: Result, seconds: float) -> float:
        """The timed window: at least ``seconds`` and MIN_SAMPLES per op
        type (capped at 3x ``seconds``), with a host-speed probe every
        PROBE_PERIOD_S.  Returns the window's wall seconds."""
        t0 = time.perf_counter()

        def done(_cid=None):
            now = time.perf_counter() - t0
            return now >= 3 * seconds or (now >= seconds and min(
                map(len, self.lat.values())) >= MIN_SAMPLES)

        async def prober():
            while not done():
                self.speed.probe()
                await asyncio.sleep(PROBE_PERIOD_S)

        task = self.loop.create_task(prober())
        self._gather(seed, res, done, True)
        self.loop.run_until_complete(task)
        return time.perf_counter() - t0

    def run_ops(self, seed: int, res: Result, nops: int) -> None:
        """``nops`` requests per connection, unrecorded."""
        left = [nops] * CONNECTIONS

        def done(cid):
            left[cid] -= 1
            return left[cid] < 0

        self._gather(seed, res, done, False)

    def stats(self) -> dict:
        return self.loop.run_until_complete(self.admin.stats())

    def close(self) -> None:
        async def close_all():
            for c in [self.admin, *self.conns]:
                await c.close()
        self.loop.run_until_complete(close_all())


def start(trace: bool, name: str, loop, seed: int, res: Result) -> Load:
    """Set-up: server process, connections, 32 pre-stored keys, warm-up."""
    server = Server(trace, name)
    try:
        load = Load(server, loop)
        load.run_ops(seed + 1_000_003, res, WARMUP_OPS)
    except BaseException:
        server.kill()
        raise
    return load


def shutdown(load: Load) -> dict:
    load.close()
    return load.server.stop()


def run(seed: int, seconds: float, import_s: float) -> Result:
    res = Result()
    loop = asyncio.new_event_loop()
    loads: list[Load] = []

    def setup() -> Load:
        loads.append(start(False, "service_live", loop, seed, res))
        return loads[-1]

    try:
        # one server at a time: each set-up but the last is shut down
        load = median_setup(res, import_s, setup,
                            lambda _: shutdown(loads.pop()))
        clock0 = load.stats()["clock_ns"]
        wall = load.drive(seed, res, seconds)
        st = load.stats()
        report = shutdown(loads.pop())
    finally:
        for left in loads:
            left.server.kill()
        loop.close()
    speed = load.speed  # its probes all ran in the timed window
    ops = sum(map(len, load.lat.values()))
    res.put("ops_per_s", ops / wall * speed.factor(), ops, ops / wall)
    res.put("modeled_s", (st["clock_ns"] - clock0) / 1e9 * 1000 / ops, ops)
    for op in ("store", "load"):
        put_latency(res, op, load.lat[op], speed, load.nbytes[op])
    res.put("peak_rss_MiB", report["peak_rss_MiB"])
    note_raw(res, speed)
    res.notes.append(f"window {wall:.2f} s, {ops} requests over "
                     f"{CONNECTIONS} connections; modeled_s is per 1000 "
                     f"requests")
    return res
