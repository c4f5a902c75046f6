"""The fabric workload: ``repro.fabric.run_fabric`` driven in this process.

One run repeats the same seeded fabric run until its time is up; the
totals must agree across repeats.  A request's latency runs from the
start of the round it arrived in to the end of the round that granted
it, read by wrapping ``FabricBroker.run_round``.  Set-up time is
broker start until every cell has answered a snapshot request, the
least of several start-ups before and after the load.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Any

from repro.fabric import broker as fabric_broker
from repro.fabric.broker import FabricBroker, FabricInvariantError, RoundOutcome
from repro.fabric.driver import FabricConfig, FabricRunResult, run_fabric
from repro.fabric.partition import FabricPartition

from perfbench.metrics import PER_LAYER
from perfbench.stats import median, quantile, tail_supported, tick_quantile
from perfbench.trace import Tracer, summarize
from perfbench.workloads import FabricWorkload

#: Broker start-ups per run whose set-up time is measured, half before the
#: load and half after; the least is reported (see ``wire.SETUP_LAUNCHES``).
SETUP_LAUNCHES = 16

#: At least this many repeats per run, so totals can be compared.
MIN_REPEATS = 2


def _config(workload: FabricWorkload, seed: int) -> FabricConfig:
    return FabricConfig(
        topology="omega", ports=workload.ports, cells=workload.cells, seed=seed,
        rounds=workload.rounds, ticks_per_round=workload.ticks_per_round,
        rate=workload.rate, max_hold=workload.max_hold,
    )


def setup_seconds(config: FabricConfig) -> float:
    """Broker start until every cell has answered (then shut down)."""
    broker = FabricBroker(
        FabricPartition(config.topology, config.ports, config.cells),
        queue_limit=config.effective_queue_limit,
        spill_after=config.spill_after,
        warm_engine=config.warm_engine,
        spill_topology=config.spill_topology(),
    )
    started = time.perf_counter()
    with broker:
        cells = broker.snapshot()["cells"]
        elapsed = time.perf_counter() - started
    if len(cells) != config.cells:
        raise FabricInvariantError(f"{len(cells)} of {config.cells} cells answered")
    return elapsed


@dataclass
class RoundClock:
    """Per-request latency, per-round wall time and the grants of the load
    rounds (the first ``load_rounds`` calls of a run), from run_round calls."""

    load_rounds: int
    latencies: list[float] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)
    round_walls: list[float] = field(default_factory=list)
    load_grants: int = 0
    _arrived: dict[int, float] = field(default_factory=dict)

    def reset(self) -> None:
        self._arrived.clear()
        self.round_walls = []
        self.latencies = []
        self.waits = []
        self.load_grants = 0

    def wrap(self, run_round: Any) -> Any:
        def timed(broker: FabricBroker, arrivals: Any, ticks: int) -> RoundOutcome:
            started = time.perf_counter()
            for request in arrivals:
                self._arrived[request.req_id] = started
            outcome = run_round(broker, arrivals, ticks)
            ended = time.perf_counter()
            self.round_walls.append(ended - started)
            if len(self.round_walls) <= self.load_rounds:
                self.load_grants += len(outcome.granted)
            for grant in outcome.granted:
                self.latencies.append(ended - self._arrived.pop(grant.req_id))
                self.waits.append(grant.waited_ticks)
            return outcome

        return timed

    @property
    def load_wall(self) -> float:
        return sum(self.round_walls[: self.load_rounds])


def _usage() -> tuple[float, float, int, int]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + me.ru_stime,
        kids.ru_utime + kids.ru_stime,
        me.ru_maxrss,
        kids.ru_maxrss,
    )


@dataclass
class Repeat:
    result: FabricRunResult
    cpu_s: float
    load_wall: float
    load_grants: int
    latencies: list[float]
    wait_p99_ticks: float

    @property
    def goodput(self) -> float:
        """Grants of the load rounds per second of those rounds."""
        return self.load_grants / self.load_wall


def _repeat(config: FabricConfig, clock: RoundClock) -> Repeat:
    clock.reset()
    before = _usage()
    result = run_fabric(config)
    after = _usage()
    cpu_s = (after[0] - before[0]) + (after[1] - before[1])
    return Repeat(
        result, cpu_s, clock.load_wall, clock.load_grants, clock.latencies,
        tick_quantile(sorted(clock.waits), 0.99),
    )


def _repeats(config: FabricConfig, seconds: float, clock: RoundClock) -> list[Repeat]:
    """Repeat the run until ``seconds`` are up; ``clock`` must be patched in."""
    out: list[Repeat] = []
    deadline = time.perf_counter() + seconds
    while len(out) < MIN_REPEATS or time.perf_counter() < deadline:
        out.append(_repeat(config, clock))
    return out


def install_layers(tracer: Tracer) -> None:
    """Wrap the fabric driver's layers: the round and the spill solve."""
    tracer.install(
        FabricBroker, "run_round", "fabric.round",
        note=lambda a, r: (r.critical_ns, r.broker_ns, r.escalated),
    )
    tracer.install(
        fabric_broker, "solve_spill", "fabric.spill.solve",
        note=lambda a, r: (sum(a[0].values()), sum(r.values())),
    )


def check(repeats: list[Repeat]) -> list[str]:
    problems = []
    first = repeats[0].result
    for repeat in repeats[1:]:
        if repeat.result.totals != first.totals:
            problems.append(f"fabric totals differ across repeats: {first.totals} != {repeat.result.totals}")
        merged = repeat.result.snapshot["merged"]["wait_percentiles"]
        if merged != first.snapshot["merged"]["wait_percentiles"]:
            problems.append("fabric wait percentiles differ across repeats")
        if repeat.wait_p99_ticks != repeats[0].wait_p99_ticks:
            problems.append("fabric grant waits differ across repeats")
    latencies = [r.latencies for r in repeats]
    if any(not tail_supported(len(lat), 0.99) for lat in latencies):
        problems.append("too few grants for a p99 with ten samples beyond it")
    return problems


def end_to_end(repeats: list[Repeat], setup_s: float, cells: int) -> dict[str, float]:
    first = repeats[0].result
    allocated = first.totals["allocated"]
    p50s = [quantile(sorted(r.latencies), 0.50) for r in repeats]
    p99s = [quantile(sorted(r.latencies), 0.99) for r in repeats]
    usage = _usage()
    return {
        "setup_s": setup_s,
        "goodput_per_s": median([r.goodput for r in repeats]),
        "acquire_p50_ms": median(p50s) * 1000.0,
        "acquire_p99_ms": median(p99s) * 1000.0,
        "served_frac": allocated / first.totals["offered"],
        "cpu_ms_per_grant": median([r.cpu_s for r in repeats]) * 1000.0 / allocated,
        "peak_rss_mb": (usage[2] + cells * usage[3]) / 1024.0,
        "fabric_allocs_per_s": median([r.result.wall_allocs_per_sec for r in repeats]),
        "grant_wait_p99_ticks": repeats[0].wait_p99_ticks,
    }


def _cell_layers(result: FabricRunResult) -> dict[str, float]:
    """The cells' service tick layer, from one run's final snapshots.

    The cells run in other processes, so their tick is read from the
    counters ``run_fabric`` returns rather than from spans.  Their tick
    phase times are not available: cells run on a virtual clock whose
    ``perf_ns`` is 0, so those histograms hold only zeros; the cells'
    time per round is ``fabric.round.cell_compute_ms``.
    """
    cells = list(result.snapshot["cells"].values())
    ticks = sum(int(c["ticks"]) for c in cells)

    def per_tick(key: str) -> float:
        return sum(c[key] * c["ticks"] for c in cells) / ticks

    return {
        "service.rejected": sum(int(c["rejected_full"]) for c in cells),
        "service.timed_out": sum(int(c["timed_out"]) for c in cells),
        "service.tick.calls": ticks,
        "service.queue_depth_mean": per_tick("mean_queue_depth"),
        "service.batch_mean": per_tick("mean_batch"),
        "flows.kernel.ops_per_grant": (
            sum(int(c["solver_instructions"]) for c in cells) / result.totals["allocated"]
        ),
    }


def per_layer(traced: list[Repeat], plain: list[Repeat], spans: dict[str, Any]) -> dict[str, float]:
    values = {name: 0.0 for name in PER_LAYER}
    rounds = spans["fabric.round"]
    spill = spans.get("fabric.spill.solve", {"calls": 0, "total_ns": 0, "note_sum": [0, 0]})
    critical_ns, broker_ns, escalated = rounds["note_sum"]
    calls = rounds["calls"]
    offered = sum(r.result.totals["offered"] for r in traced)
    cpu = median([r.cpu_s / r.result.totals["allocated"] for r in traced])
    cpu_plain = median([r.cpu_s / r.result.totals["allocated"] for r in plain])
    demanded, placed = spill["note_sum"] or [0, 0]
    values.update(_cell_layers(traced[0].result))
    values.update({
        "fabric.round.calls": calls,
        "fabric.round.wall_ms": rounds["total_ns"] / calls / 1e6,
        "fabric.round.cell_compute_ms": critical_ns / calls / 1e6,
        "fabric.round.broker_cpu_ms": broker_ns / calls / 1e6,
        "fabric.round.ipc_wait_ms": (rounds["total_ns"] - critical_ns - broker_ns) / calls / 1e6,
        "fabric.escalated_frac": escalated / offered if offered else 0.0,
        "fabric.spill.solve_calls": spill["calls"],
        "fabric.spill.solve_us": spill["total_ns"] / spill["calls"] / 1e3 if spill["calls"] else 0.0,
        "fabric.spill.placed_frac": placed / demanded if demanded else 0.0,
        "trace.overhead_frac": cpu / cpu_plain - 1.0,
        "trace.goodput_delta_frac": (
            median([r.goodput for r in traced]) / median([r.goodput for r in plain]) - 1.0
        ),
    })
    return values


def run(workload: FabricWorkload, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One benchmark run of the fabric workload."""
    config = _config(workload, seed)
    clock = RoundClock(load_rounds=config.rounds)
    # One patch list for the clock and the layer spans, so they come off
    # in the reverse order they went on.
    tracer = Tracer()
    tracer.patch(FabricBroker, "run_round", clock.wrap)
    try:
        if not trace:
            setups = [setup_seconds(config) for _ in range(SETUP_LAUNCHES // 2)]
            repeats = _repeats(config, seconds, clock)
            setups += [setup_seconds(config) for _ in range(SETUP_LAUNCHES - len(setups))]
            values = end_to_end(repeats, min(setups), config.cells)
            measured = repeats
        else:
            plain = _repeats(config, seconds / 2, clock)
            install_layers(tracer)
            tracer.enabled = True
            measured = _repeats(config, seconds / 2, clock)
            tracer.enabled = False
            values = per_layer(measured, plain, summarize(tracer.spans))
            repeats = plain + measured
    except FabricInvariantError as exc:
        return {"values": {}, "problems": [f"fabric invariant: {exc}"], "attempted": 1,
                "failed": 1, "context": {}}
    finally:
        tracer.uninstall()
    totals = measured[0].result.totals
    return {
        "values": values,
        "problems": check(repeats),
        "attempted": sum(r.result.totals["offered"] for r in repeats),
        "failed": 0,
        "context": {
            **workload.context(),
            "repeats": len(measured),
            "totals": totals,
            "latency_samples": sum(len(r.latencies) for r in measured),
            "host_cpus": measured[0].result.host_cpus,
        },
    }
