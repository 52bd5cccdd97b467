"""Benchmark entry point.

    python3 perfbench/run.py --workload fig67_8p --seed 1 --seconds 25 --trace 0

Runs one workload (see perfbench/README.md) from the root of a checkout.
Prints one line per metric (name, value, unit, sample count), then, as the
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1`` (a traced run does a
fixed amount of work, so ``--seconds`` does not apply).  Exits 2 without a
result when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("fig67_8p", "meta_churn", "service_live")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    try:
        import repro  # noqa: F401  (the system under test, from src/)
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}:"
              f" {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    from perfbench import common

    if ns.trace:
        from perfbench import traced

        res = traced.run(ns.workload, ns.seed)
        units = common.PER_LAYER
    else:
        if ns.workload == "fig67_8p":
            from perfbench import fig67 as wl
        elif ns.workload == "meta_churn":
            from perfbench import churn as wl
        else:
            from perfbench import service_live as wl
        res = wl.run(ns.seed, ns.seconds, import_s)
        units = common.END_TO_END

    print(f"workload {ns.workload} seed {ns.seed} seconds {ns.seconds:g} "
          f"trace {ns.trace}")
    for line in res.notes:
        print(line)
    missing = [m for m in units if m not in res.values]
    for m in missing:
        res.fail(f"metric {m} not measured")
    for name, unit in units.items():
        if name in res.values:
            print(f"  {name:<36} {res.values[name]:>14.6g} {unit:<6} "
                  f"n={res.samples.get(name, 1)}")
    for why in res.failures:
        print(f"  FAILED: {why}")
    print(f"attempted {res.attempted} failed {res.failed}")
    if missing:
        return 1
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": max(1, res.attempted),
        "failed": res.failed,
        "metrics": {name: {"value": res.values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
