"""Metric names and units, and the result line every run prints.

``BENCHMARK.json`` lists the same names; ``perfbench/tests`` checks
that the two agree.
"""

from __future__ import annotations

import json
from typing import Any

#: End-to-end metrics (runs with tracing off): name -> unit.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "goodput_per_s": "1/s",
    "acquire_p50_ms": "ms",
    "acquire_p99_ms": "ms",
    "served_frac": "frac",
    "cpu_ms_per_grant": "ms",
    "peak_rss_mb": "MB",
    "fabric_allocs_per_s": "1/s",
    "grant_wait_p99_ticks": "ticks",
}

#: Per-layer metrics (the traced run): name -> unit.  A layer a workload
#: does not run, or whose figure it cannot observe, reports 0.
PER_LAYER: dict[str, str] = {
    "gen.lag_p99_ms": "ms",
    "wire.protocol.decode_calls": "count",
    "wire.protocol.decode_us": "us",
    "wire.protocol.encode_calls": "count",
    "wire.protocol.encode_us": "us",
    "wire.server.frames_per_grant": "count",
    "wire.server.protocol_errors": "count",
    "wire.server.overhead_p50_ms": "ms",
    "service.acquire_wait_p50_ms": "ms",
    "service.acquire_wait_p99_ms": "ms",
    "service.rejected": "count",
    "service.timed_out": "count",
    "service.release_us": "us",
    "service.tick.calls": "count",
    "service.tick.busy_frac": "frac",
    "service.tick.p99_us": "us",
    "service.tick.lag_p99_ms": "ms",
    "service.tick.reconcile_us": "us",
    "service.tick.solve_us": "us",
    "service.tick.apply_us": "us",
    "service.queue_depth_mean": "count",
    "service.batch_mean": "count",
    "service.useful_tick_frac": "frac",
    "core.engine.schedule_calls": "count",
    "core.engine.schedule_us": "us",
    "core.engine.commit_us": "us",
    "core.engine.grant_frac": "frac",
    "flows.kernel.solve_calls": "count",
    "flows.kernel.solve_us": "us",
    "flows.kernel.ops_per_grant": "count",
    "core.model.apply_mapping_us": "us",
    "fabric.round.calls": "count",
    "fabric.round.wall_ms": "ms",
    "fabric.round.cell_compute_ms": "ms",
    "fabric.round.broker_cpu_ms": "ms",
    "fabric.round.ipc_wait_ms": "ms",
    "fabric.escalated_frac": "frac",
    "fabric.spill.solve_calls": "count",
    "fabric.spill.solve_us": "us",
    "fabric.spill.placed_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.goodput_delta_frac": "frac",
    "trace.unattributed_frac": "frac",
}


def result_line(
    *, correct: bool, attempted: int, failed: int, values: dict[str, float], units: dict[str, str]
) -> str:
    """The JSON object a run prints last: each metric of ``units`` that was measured."""
    metrics: dict[str, Any] = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )
