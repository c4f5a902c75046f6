"""The open-loop generator's accounting: due-time latency, failures, the lag guard."""

from __future__ import annotations

import asyncio
import time
from types import SimpleNamespace

import pytest

from repro.wire.client import WireRejected, WireTimeout
from repro.wire.loadgen import Arrival

from perfbench import wire
from perfbench.loadgen import LAG_BOUND_MS, WINDOW_GRANTS, Outcomes, run_open_loop


def test_latency_counts_from_due_time_not_send_time():
    out = Outcomes(deadline=1.0)
    for i in range(WINDOW_GRANTS):
        due = float(i)
        out.sent(due, due + 0.300)          # sent 300 ms late
        out.granted(due, due + 0.350, 0.0)  # answered 50 ms after sending
    latency = out.latency_ms()
    assert latency["p50"] == pytest.approx(350.0)
    assert latency["p99"] == pytest.approx(350.0)
    assert out.lag_p99_ms() == pytest.approx(300.0, rel=0.01)


def test_rejected_timed_out_and_late_requests_fail_and_miss_the_limit():
    out = Outcomes(deadline=1.0, offered=5)
    out.granted(0.0, 0.2, 0.0)   # on time
    out.granted(0.0, 1.5, 0.0)   # granted, but after the deadline
    out.rejected += 1
    out.timed_out += 1
    out.errors += 1
    assert out.settled == out.offered
    assert out.on_time == 1
    assert out.failed == 4


class _StallingClient:
    """Fake client: the first acquire blocks the whole event loop."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.calls = 0

    async def acquire(self, processor: int, *, timeout: float) -> SimpleNamespace:
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall)  # a stalled generator: nothing else runs
        if processor == 1:
            raise WireRejected("queue full")
        if processor == 2:
            raise WireTimeout("deadline expired")
        return SimpleNamespace(waited=0.0)

    async def release(self, lease: SimpleNamespace) -> None:
        return None


def test_stalled_generator_charges_the_stall_and_is_invalid():
    stall = 0.2
    schedule = [Arrival(time=0.01 * i, processor=0, hold=0.0) for i in range(5)]
    schedule += [Arrival(time=0.06, processor=1, hold=0.0), Arrival(time=0.07, processor=2, hold=0.0)]
    out = Outcomes(deadline=1.0)
    asyncio.run(run_open_loop([_StallingClient(stall)], schedule, out))
    assert out.settled == out.offered == 7
    assert (out.rejected, out.timed_out, len(out.grants)) == (1, 1, 5)
    # Requests due during the stall are charged the wait it imposed.
    latencies = sorted(g[1] for g in out.grants)
    assert latencies[-1] >= stall - 0.05
    assert out.lag_p99_ms() > LAG_BOUND_MS
    assert not out.valid


def _segment(outcomes: Outcomes) -> wire.Segment:
    snapshot = {
        "allocated": 0, "submitted": len(outcomes.grants) + outcomes.timed_out,
        "rejected_full": outcomes.rejected, "ticks": 0,
        "wire": {"protocol_errors": 0, "leases_auto_released": 0},
    }
    zero = {**snapshot, "submitted": 0, "rejected_full": 0}
    return wire.Segment(
        outcomes=outcomes, schedule_s=1.0,
        report={"mark": zero, "final": snapshot},
        stats={"active_leases": 0, "wire": {"protocol_errors": 0}},
        digest="d", n_resources=16,
    )


def test_lagging_generator_marks_the_run_invalid():
    on_time = Outcomes(deadline=1.0)
    late = Outcomes(deadline=1.0)
    for out, lag in ((on_time, 0.001), (late, 0.050)):
        for i in range(WINDOW_GRANTS):
            out.offered += 1
            out.sent(float(i), float(i) + lag)
            out.granted(float(i), float(i) + lag + 0.005, 0.0)
    assert wire.check(_segment(on_time)) == []
    problems = wire.check(_segment(late))
    assert any("invalid run" in p for p in problems)


def test_conservation_and_leak_checks_are_real_failures():
    out = Outcomes(deadline=1.0, offered=WINDOW_GRANTS + 1)
    for i in range(WINDOW_GRANTS):
        out.granted(float(i), float(i) + 0.01, 0.0)
    segment = _segment(out)
    segment.stats["active_leases"] = 2
    problems = wire.check(segment)
    assert any("conservation" in p for p in problems)
    assert any("active_leases" in p for p in problems)
