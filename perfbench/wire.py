"""Wire workloads: a server process driven by this process's open-loop generator.

Each measured segment launches ``perfbench/server.py``, connects at most
``nproc`` clients, marks the server (CPU baseline, spans on), plays the
seeded schedule open loop, checks the outcome, and stops the server for
its report.  Set-up time is taken over several launches before and
after the load: from process launch to the PONG on its first accepted
connection.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.wire.client import WireClient
from repro.wire.loadgen import LoadGenConfig, arrival_schedule

from perfbench.loadgen import Outcomes, run_open_loop, schedule_digest
from perfbench.metrics import PER_LAYER
from perfbench.stats import quantile
from perfbench.workloads import DEADLINE_S, MEAN_HOLD_S, TICK_S, WireWorkload

#: Server launches per run whose set-up time is measured: half before the
#: load, the measured one, the rest after.  The least is reported: set-up
#: does the same work every time, so the quickest launch is the one the
#: host disturbed least, and it moves far less between runs than a median.
SETUP_LAUNCHES = 10

#: Seconds allowed for one server reply on its control pipe.
CONTROL_TIMEOUT_S = 60.0

SERVER = Path(__file__).resolve().parent / "server.py"

#: Client connections: one per CPU, at most two.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))


class ServerProcess:
    """One ``perfbench/server.py`` child and its JSON-lines control pipe."""

    def __init__(self, proc: asyncio.subprocess.Process, launched: float) -> None:
        self.proc = proc
        self.launched = launched
        self.hello: dict[str, Any] = {}

    @classmethod
    async def launch(cls, workload: WireWorkload, trace: bool) -> "ServerProcess":
        launched = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(SERVER),
            "--network", workload.network, "--ports", str(workload.ports),
            "--tick", str(TICK_S), "--trace", "1" if trace else "0",
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            limit=1 << 24,
        )
        server = cls(proc, launched)
        try:
            server.hello = await server.read()
        except BaseException:
            await server.kill()
            raise
        return server

    async def read(self) -> dict[str, Any]:
        assert self.proc.stdout is not None
        line = await asyncio.wait_for(self.proc.stdout.readline(), CONTROL_TIMEOUT_S)
        if not line:
            raise RuntimeError(f"server exited early (code {await self.proc.wait()})")
        return dict(json.loads(line))

    async def command(self, word: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(word.encode() + b"\n")
        await self.proc.stdin.drain()

    async def finish(self) -> dict[str, Any]:
        """Stop the server; its final report."""
        await self.command("stop")
        report = await self.read()
        await asyncio.wait_for(self.proc.wait(), CONTROL_TIMEOUT_S)
        return report

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
        await self.proc.wait()


async def _connect(server: ServerProcess, count: int) -> tuple[list[WireClient], float]:
    """Open ``count`` clients; set-up time ends at the first PONG."""
    clients = [
        WireClient("127.0.0.1", int(server.hello["port"]), request_timeout=DEADLINE_S)
        for _ in range(count)
    ]
    await clients[0].connect()
    await clients[0].ping()
    setup_s = time.perf_counter() - server.launched
    for client in clients[1:]:
        await client.connect()
    return clients, setup_s


async def _close(clients: list[WireClient]) -> None:
    for client in clients:
        await client.close()


@dataclass
class Segment:
    """One measured server lifetime."""

    outcomes: Outcomes
    schedule_s: float
    report: dict[str, Any]
    stats: dict[str, Any]
    digest: str
    n_resources: int

    def delta(self, key: str) -> float:
        return float(self.report["final"][key]) - float(self.report["mark"][key])

    @property
    def grants(self) -> int:
        return int(self.delta("allocated"))


async def _segment(
    server: ServerProcess, clients: list[WireClient], workload: WireWorkload, seed: int, seconds: float
) -> Segment:
    config = LoadGenConfig(
        rate=workload.rate, duration=seconds, processors=workload.ports,
        seed=seed, request_timeout=DEADLINE_S, mean_hold=MEAN_HOLD_S,
    )
    schedule = arrival_schedule(config)
    digest = schedule_digest(schedule)
    await server.command("mark")
    await server.read()
    outcomes = Outcomes(deadline=DEADLINE_S)
    await run_open_loop(clients, schedule, outcomes)
    stats = await clients[0].stats()
    await _close(clients)
    report = await server.finish()
    again = schedule_digest(arrival_schedule(config))
    return Segment(
        outcomes, seconds, report, stats, digest if again == digest else "mismatch",
        int(server.hello["n_resources"]),
    )


async def _launch_measured(
    workload: WireWorkload, trace: bool, setups: list[float]
) -> tuple[ServerProcess, list[WireClient]]:
    server = await ServerProcess.launch(workload, trace)
    try:
        clients, setup_s = await _connect(server, CONNECTIONS)
    except BaseException:
        await server.kill()
        raise
    setups.append(setup_s)
    return server, clients


async def _measure(
    workload: WireWorkload, seed: int, seconds: float, trace: bool, setups: list[float]
) -> Segment:
    server, clients = await _launch_measured(workload, trace, setups)
    try:
        return await _segment(server, clients, workload, seed, seconds)
    finally:
        await _close(clients)
        await server.kill()


async def _setup_only(workload: WireWorkload, setups: list[float]) -> None:
    server = await ServerProcess.launch(workload, False)
    try:
        clients, setup_s = await _connect(server, 1)
        setups.append(setup_s)
        await _close(clients)
        await server.command("stop")
        await server.read()
    finally:
        await server.kill()


def check(segment: Segment) -> list[str]:
    """Correctness failures of one segment (empty when it is correct)."""
    out, final, stats = segment.outcomes, segment.report["final"], segment.stats
    problems = []
    if out.settled != out.offered:
        problems.append(
            f"conservation: offered {out.offered} != granted {len(out.grants)} + rejected "
            f"{out.rejected} + timed_out {out.timed_out} + errors {out.errors}"
        )
    if out.errors or out.release_errors:
        problems.append(f"{out.errors} acquire and {out.release_errors} release errors")
    admitted = segment.delta("submitted") + segment.delta("rejected_full")
    if admitted != out.offered or segment.delta("rejected_full") != out.rejected:
        problems.append(
            f"server saw {admitted:g} requests ({segment.delta('rejected_full'):g} rejected), "
            f"generator offered {out.offered} ({out.rejected} rejected)"
        )
    if stats.get("active_leases") != 0:
        problems.append(f"active_leases after drain: {stats.get('active_leases')}")
    if stats.get("wire", {}).get("protocol_errors") != 0 or final["wire"]["protocol_errors"] != 0:
        problems.append(f"protocol_errors: {final['wire']['protocol_errors']}")
    if final["wire"]["leases_auto_released"] != segment.report["mark"]["wire"]["leases_auto_released"]:
        problems.append("leases were left for the server to auto-release")
    if segment.digest == "mismatch":
        problems.append("arrival schedule digest differs between repeats of one seed")
    if not out.valid:
        problems.append(
            f"invalid run: generator p99 lag {out.lag_p99_ms():.2f} ms over the bound"
        )
    if segment.outcomes.latency_ms()["p99"] is None:
        problems.append("too few grants for a p99 with ten samples beyond it")
    return problems


def end_to_end(segment: Segment, setup_s: float) -> dict[str, float]:
    out, report = segment.outcomes, segment.report
    latency = out.latency_ms()
    grants = max(segment.grants, 1)
    return {
        "setup_s": setup_s,
        "goodput_per_s": out.on_time / segment.schedule_s,
        "acquire_p50_ms": latency["p50"] or 0.0,
        "acquire_p99_ms": latency["p99"] or 0.0,
        "served_frac": 1.0 - out.failed / max(out.offered, 1),
        "cpu_ms_per_grant": report["cpu_s"] * 1000.0 / grants,
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
        "fabric_allocs_per_s": segment.grants / report["wall_s"],
        "grant_wait_p99_ticks": (latency["wait_p99"] or 0.0) / 1000.0 / TICK_S,
    }


def per_layer(traced: Segment, plain: Segment) -> dict[str, float]:
    """Layer metrics of the traced segment, against the untraced one."""
    spans = traced.report["spans"]
    mark, final = traced.report["mark"], traced.report["final"]
    ticks = max(traced.delta("ticks"), 1)
    grants = max(traced.grants, 1)

    def span(name: str) -> dict[str, Any]:
        return spans.get(name) or {
            "calls": 0, "total_ns": 0, "self_ns": 0, "p50_ns": 0, "p99_ns": 0,
            "gap_p99_ns": 0, "note_sum": [], "note_nonzero": 0,
        }

    def per_call_us(name: str) -> float:
        row = span(name)
        return row["total_ns"] / row["calls"] / 1e3 if row["calls"] else 0.0

    def phase_us(phase: str) -> float:
        total = final["tick_timing"][phase]["total_ns"] - mark["tick_timing"][phase]["total_ns"]
        return total / ticks / 1e3

    def tick_mean(key: str) -> float:
        return (final[key] * final["ticks"] - mark[key] * mark["ticks"]) / ticks

    tick, engine, acquire = span("service.tick"), span("core.engine.schedule"), span("service.acquire")
    offered_to_solver = engine["note_sum"][0] if engine["note_sum"] else 0
    busy_ns = traced.report["cpu_s"] * 1e9
    attributed = sum(row["self_ns"] for name, row in spans.items() if name != "service.acquire")
    # Pooled over the same granted requests as the acquire spans, so the
    # difference cannot go negative.
    latencies = sorted(g[1] for g in traced.outcomes.grants)
    client_p50 = quantile(latencies, 0.50) * 1000.0 if latencies else 0.0
    values = {name: 0.0 for name in PER_LAYER}
    values.update({
        "gen.lag_p99_ms": traced.outcomes.lag_p99_ms(),
        "wire.protocol.decode_calls": span("wire.protocol.decode")["calls"],
        "wire.protocol.decode_us": per_call_us("wire.protocol.decode"),
        "wire.protocol.encode_calls": span("wire.protocol.encode")["calls"],
        "wire.protocol.encode_us": per_call_us("wire.protocol.encode"),
        "wire.server.frames_per_grant": (
            final["wire"]["frames_received"] - mark["wire"]["frames_received"]
        ) / grants,
        "wire.server.protocol_errors": final["wire"]["protocol_errors"],
        "wire.server.overhead_p50_ms": client_p50 - acquire["p50_ns"] / 1e6,
        "service.acquire_wait_p50_ms": acquire["p50_ns"] / 1e6,
        "service.acquire_wait_p99_ms": acquire["p99_ns"] / 1e6,
        "service.rejected": traced.delta("rejected_full"),
        "service.timed_out": traced.delta("timed_out"),
        "service.release_us": per_call_us("service.release"),
        "service.tick.calls": tick["calls"],
        "service.tick.busy_frac": tick["total_ns"] / (traced.report["wall_s"] * 1e9),
        "service.tick.p99_us": tick["p99_ns"] / 1e3,
        "service.tick.lag_p99_ms": (tick["gap_p99_ns"] / 1e9 - TICK_S) * 1e3,
        "service.tick.reconcile_us": phase_us("reconcile"),
        "service.tick.solve_us": phase_us("solve"),
        "service.tick.apply_us": phase_us("apply"),
        "service.queue_depth_mean": tick_mean("mean_queue_depth"),
        "service.batch_mean": tick_mean("mean_batch"),
        "service.useful_tick_frac": tick["note_nonzero"] / tick["calls"] if tick["calls"] else 0.0,
        "core.engine.schedule_calls": engine["calls"],
        "core.engine.schedule_us": per_call_us("core.engine.schedule"),
        "core.engine.commit_us": per_call_us("core.engine.commit"),
        "core.engine.grant_frac": engine["note_sum"][1] / offered_to_solver if offered_to_solver else 0.0,
        "flows.kernel.solve_calls": span("flows.kernel.max_flow")["calls"],
        "flows.kernel.solve_us": per_call_us("flows.kernel.max_flow"),
        "flows.kernel.ops_per_grant": traced.delta("solver_instructions") / grants,
        "core.model.apply_mapping_us": per_call_us("core.model.apply_mapping"),
        "trace.overhead_frac": _cpu_per_grant(traced) / _cpu_per_grant(plain) - 1.0,
        "trace.goodput_delta_frac": traced.outcomes.on_time / max(plain.outcomes.on_time, 1) - 1.0,
        "trace.unattributed_frac": 1.0 - attributed / busy_ns if busy_ns else 0.0,
    })
    return values


def _cpu_per_grant(segment: Segment) -> float:
    return segment.report["cpu_s"] / max(segment.grants, 1)


async def run(workload: WireWorkload, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One benchmark run of a wire workload."""
    setups: list[float] = []
    if not trace:
        for _ in range(SETUP_LAUNCHES // 2):
            await _setup_only(workload, setups)
        segments = [await _measure(workload, seed, seconds, False, setups)]
        while len(setups) < SETUP_LAUNCHES:
            await _setup_only(workload, setups)
    else:
        # Same seed and length on both sides, so the traced segment differs
        # from the untraced one only by the tracing.
        half = seconds / 2
        segments = [
            await _measure(workload, seed, half, False, setups),
            await _measure(workload, seed, half, True, setups),
        ]
    problems = [p for segment in segments for p in check(segment)]
    if len({segment.digest for segment in segments}) != 1:
        problems.append("the traced and untraced segments played different schedules")
    measured = segments[-1]
    values = (
        per_layer(measured, segments[0]) if trace else end_to_end(measured, min(setups))
    )
    out = measured.outcomes
    return {
        "values": values,
        "problems": problems,
        "attempted": sum(s.outcomes.offered for s in segments),
        "failed": sum(s.outcomes.errors + s.outcomes.release_errors for s in segments),
        "context": {
            **workload.context(measured.n_resources),
            "connections": CONNECTIONS,
            "schedule_digest": measured.digest,
            "offered": out.offered,
            "granted": len(out.grants),
            "on_time": out.on_time,
            "rejected": out.rejected,
            "timed_out": out.timed_out,
            "late": len(out.grants) - out.on_time,
            "errors": out.errors,
            "latency_samples": out.latency_ms()["samples"],
            "latency_windows": out.latency_ms()["windows"],
            "gen_lag_p99_ms": out.lag_p99_ms(),
            "setup_samples_s": setups,
        },
    }
