"""The benchmark's open-loop generator: every request timed from its due time.

``repro.wire.loadgen.run_loadgen`` starts each latency clock when the
request is actually sent, so a stalled generator hides the wait it
imposed on the requests queued behind the stall (coordinated omission).
This generator draws the same seeded schedule
(:func:`repro.wire.loadgen.arrival_schedule`) but drives
:class:`~repro.wire.client.WireClient` itself: a request's latency runs
from its *due* instant to the LEASE reply, and the send lag (send time
minus due time) goes into a histogram of its own.  A run whose p99 lag
exceeds :data:`LAG_BOUND_MS` is invalid.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.util.histogram import LatencyHistogram
from repro.wire.client import WireClient, WireError, WireRejected, WireTimeout
from repro.wire.loadgen import Arrival

from perfbench.stats import quantile

#: p99 send lag above which the schedule was not kept and the run is invalid.
LAG_BOUND_MS = 20.0

#: Fewest granted requests in a window (so >= 10 lie beyond its p99).
WINDOW_GRANTS = 1000

#: At most this many windows; reported quantiles are means over them.
MAX_WINDOWS = 9

#: Lead before the first due instant, so it is not late on arrival.
START_LEAD_S = 0.05


def schedule_digest(schedule: Sequence[Arrival]) -> str:
    """SHA-256 over every (time, processor, hold) of the schedule."""
    digest = hashlib.sha256()
    for arrival in schedule:
        digest.update(f"{arrival.time!r},{arrival.processor},{arrival.hold!r};".encode())
    return digest.hexdigest()


@dataclass
class Outcomes:
    """What happened to each offered request.

    ``offered == granted + rejected + timed_out + errors`` once every
    request has finished.  A grant counts as on time when its latency
    from the due instant is within ``deadline``; a rejected, timed-out,
    failed or late request is a failure and misses the latency limit.
    """

    deadline: float
    offered: int = 0
    rejected: int = 0
    timed_out: int = 0
    errors: int = 0
    release_errors: int = 0
    grants: list[tuple[float, float, float]] = field(default_factory=list)  # (due, latency, waited)
    lag_us: LatencyHistogram = field(default_factory=LatencyHistogram)

    def sent(self, due: float, at: float) -> None:
        self.lag_us.record(max(int((at - due) * 1e6), 0))

    def granted(self, due: float, replied: float, waited: float) -> None:
        """A LEASE reply; ``waited`` is the server's queue wait it reports."""
        self.grants.append((due, replied - due, waited))

    @property
    def on_time(self) -> int:
        return sum(1 for _, latency, _ in self.grants if latency <= self.deadline)

    @property
    def failed(self) -> int:
        """Rejected + timed out + errors + late grants."""
        late = len(self.grants) - self.on_time
        return self.rejected + self.timed_out + self.errors + late

    @property
    def settled(self) -> int:
        return len(self.grants) + self.rejected + self.timed_out + self.errors

    def lag_p99_ms(self) -> float:
        return self.lag_us.quantile(99) / 1000.0 if self.lag_us.count else 0.0

    @property
    def valid(self) -> bool:
        """The generator kept to its schedule (p99 lag within the bound)."""
        return self.lag_p99_ms() <= LAG_BOUND_MS

    def latency_ms(self) -> dict[str, Any]:
        """Acquire latency and server wait: means over windows of grants.

        Grants are cut, in due order, into up to :data:`MAX_WINDOWS`
        windows of at least :data:`WINDOW_GRANTS` each, so every window
        has at least ten samples beyond its p99.  Each figure is the
        mean over windows of that window's quantile: a host stall moves
        only its own window's share, and unlike a median over windows
        the mean does not jump between the two levels that the window
        p99s of an overloaded queue alternate between.  Quantiles are
        None when there are too few grants for one window.
        """
        ordered = sorted(self.grants)
        n = len(ordered)
        windows = min(MAX_WINDOWS, n // WINDOW_GRANTS)
        per_window: dict[str, list[float]] = {"p50": [], "p99": [], "wait_p99": []}
        for w in range(windows):
            chunk = ordered[w * n // windows:(w + 1) * n // windows]
            latencies = sorted(g[1] for g in chunk)
            waits = sorted(g[2] for g in chunk)
            per_window["p50"].append(quantile(latencies, 0.50))
            per_window["p99"].append(quantile(latencies, 0.99))
            per_window["wait_p99"].append(quantile(waits, 0.99))
        out: dict[str, Any] = {
            key: statistics.fmean(values) * 1000.0 if values else None
            for key, values in per_window.items()
        }
        out.update(samples=n, windows=windows)
        return out


async def run_open_loop(
    clients: Sequence[WireClient], schedule: Sequence[Arrival], outcomes: Outcomes
) -> None:
    """Fire ``schedule`` across ``clients`` on time, whatever replies do.

    Requests round-robin over the clients and pipeline within each.
    Returns once every request (and its hold and release) has finished.
    """
    loop = asyncio.get_running_loop()
    outcomes.offered += len(schedule)
    start = loop.time() + START_LEAD_S
    tasks: set[asyncio.Task[None]] = set()
    for i, arrival in enumerate(schedule):
        due = start + arrival.time
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        task = loop.create_task(_one(clients[i % len(clients)], arrival, due, outcomes))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*tasks)


async def _one(client: WireClient, arrival: Arrival, due: float, outcomes: Outcomes) -> None:
    loop = asyncio.get_running_loop()
    outcomes.sent(due, loop.time())
    try:
        lease = await client.acquire(arrival.processor, timeout=outcomes.deadline)
    except WireRejected:
        outcomes.rejected += 1
        return
    except WireTimeout:
        outcomes.timed_out += 1
        return
    except WireError:
        outcomes.errors += 1
        return
    outcomes.granted(due, loop.time(), lease.waited)
    try:
        if arrival.hold > 0:
            await asyncio.sleep(arrival.hold)
        await client.release(lease)
    except WireError:
        outcomes.release_errors += 1
