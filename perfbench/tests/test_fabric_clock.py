"""The fabric round clock: latency from the round of arrival, goodput from load rounds."""

from __future__ import annotations

from types import SimpleNamespace

from perfbench.fabric import RoundClock


def test_goodput_counts_only_grants_of_the_load_rounds():
    clock = RoundClock(load_rounds=2)
    grant = lambda req_id: SimpleNamespace(req_id=req_id, waited_ticks=1)  # noqa: E731
    # Two load rounds, then a drain round whose grant is not load goodput.
    granted = iter([[grant(1)], [grant(2)], [grant(3)]])

    def run_round(broker, arrivals, ticks):
        return SimpleNamespace(granted=next(granted))

    timed = clock.wrap(run_round)
    for req_ids in ([1, 2], [3], []):
        timed(None, [SimpleNamespace(req_id=r) for r in req_ids], 8)
    assert clock.load_grants == 2
    assert len(clock.round_walls) == 3 and len(clock.latencies) == 3
    assert clock.load_wall == sum(clock.round_walls[:2])
    clock.reset()
    assert clock.load_grants == 0 and clock.latencies == []
