"""Run one workload of the repository benchmark and print its metrics.

Usage::

    python3 perfbench/run.py --workload wire-cpu --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the run context and every metric with its unit.  The
exit code is 0 only when every correctness check passed.  Workloads,
metrics and their interactions are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import fabric, wire
    from perfbench.metrics import END_TO_END, PER_LAYER, result_line
    from perfbench.workloads import WORKLOADS, FabricWorkload

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    trace = bool(args.trace)
    if isinstance(workload, FabricWorkload):
        run = fabric.run(workload, args.seed, args.seconds, trace)
    else:
        run = asyncio.run(wire.run(workload, args.seed, args.seconds, trace))

    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "transport": "fabric pipes (in-process broker)"
        if isinstance(workload, FabricWorkload) else "TCP loopback 127.0.0.1",
        **run["context"],
    }
    print(json.dumps({"context": context}, sort_keys=True))
    for problem in run["problems"]:
        print(f"CHECK FAILED: {problem}")
    units = PER_LAYER if trace else END_TO_END
    values = run["values"]
    samples = run["context"].get("latency_samples")
    for name, unit in units.items():
        if name in values:
            beside = f"  ({samples} samples)" if name.startswith("acquire_") else ""
            print(f"{name:32s} {values[name]:14.6g} {unit}{beside}")
    correct = not run["problems"] and set(units) <= set(values)
    print(result_line(correct=correct, attempted=run["attempted"], failed=run["failed"],
                      values=values, units=units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
