"""The benchmark's wire server process: MRSIN -> AllocationService -> WireServer.

Run by ``perfbench/run.py``, never imported by it, so the server owns a
process (and a CPU) of its own.  The settings are the ones
``repro wire-serve`` would use: they are read from the CLI's own parser
with only ``--network``, ``--ports`` and ``--tick`` given.

Protocol with the parent, one JSON object per stdout line:

1. after the listener is up: ``{"port": ..., "n_resources": ...}``;
2. on ``mark`` from stdin: snapshot the service, take the CPU baseline,
   start recording spans, answer ``{"marked": true}``;
3. on ``stop`` (or end of stdin): drain, close, and print the final
   report with CPU, peak RSS, the snapshots at mark and at stop, and
   (with ``--trace 1``) the reduced spans.

Usage: ``python3 perfbench/server.py --network omega --ports 16 --tick 0.005 [--trace 1]``
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.cli import TOPOLOGIES, build_parser  # noqa: E402
from repro.core.incremental import KernelFlowEngine  # noqa: E402
from repro.core.model import MRSIN  # noqa: E402
from repro.flows.kernel import FlowKernel  # noqa: E402
from repro.service.server import AllocationService, ServiceConfig  # noqa: E402
from repro.wire import server as wire_server  # noqa: E402
from repro.wire.server import WireServer  # noqa: E402

from perfbench.trace import Tracer, summarize  # noqa: E402


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the server runs."""
    tracer.install(wire_server, "decode", "wire.protocol.decode")
    tracer.install(wire_server, "encode", "wire.protocol.encode")
    tracer.install(AllocationService, "acquire", "service.acquire")
    tracer.install(AllocationService, "release", "service.release")
    tracer.install(AllocationService, "end_transmission", "service.release")
    tracer.install(AllocationService, "run_one_cycle", "service.tick", note=lambda a, r: (len(r),))
    tracer.install(
        KernelFlowEngine, "schedule", "core.engine.schedule", note=lambda a, r: (len(a[1]), len(r))
    )
    tracer.install(KernelFlowEngine, "commit", "core.engine.commit")
    tracer.install(FlowKernel, "max_flow", "flows.kernel.max_flow")
    tracer.install(MRSIN, "apply_mapping", "core.model.apply_mapping")


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def emit(obj: dict[str, Any]) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


async def serve(network: str, ports: int, tick: float, trace: bool) -> dict[str, Any]:
    args = build_parser().parse_args(
        ["wire-serve", "--network", network, "--ports", str(ports), "--tick", str(tick)]
    )
    config = ServiceConfig(
        tick_interval=args.tick,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        degrade_watermark=args.watermark,
        default_timeout=args.timeout,
        fault_budget=args.fault_budget,
    )
    tracer = Tracer()
    if trace:
        install_layers(tracer)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    service = AllocationService(MRSIN(TOPOLOGIES[args.network](args.ports)), config=config)
    async with service:
        async with WireServer(
            service, host=args.host, port=args.port, max_connections=args.max_connections
        ) as server:
            emit({"port": server.address[1], "n_resources": service.mrsin.n_resources,
                  "queue_limit": config.queue_limit})
            command = (await stdin.readline()).strip()
            if command != b"mark":
                return {"aborted": command.decode(errors="replace")}
            mark = service.snapshot()
            mark["wire"] = server.snapshot()
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            tracer.enabled = True
            emit({"marked": True})
            await stdin.readline()
            tracer.enabled = False
            cpu_s, wall_s = cpu_seconds() - cpu0, time.perf_counter() - wall0
            await server.drain()
            final = service.snapshot()
            final["wire"] = server.snapshot()
    return {
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "mark": mark,
        "final": final,
        "spans": summarize(tracer.spans) if trace else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--network", default="omega")
    parser.add_argument("--ports", type=int, required=True)
    parser.add_argument("--tick", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    emit(asyncio.run(serve(args.network, args.ports, args.tick, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
