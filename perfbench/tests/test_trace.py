"""Spans, parents and self time."""

from __future__ import annotations

import asyncio
import itertools
import types

import pytest

from perfbench.trace import Tracer, self_times, summarize


def test_self_time_is_duration_minus_the_union_of_child_intervals():
    spans = [
        ["parent", 0, 100, -1, None],
        ["child", 10, 30, 0, None],
        ["child", 20, 50, 0, None],    # overlaps its sibling: counted once
        ["late", 90, 120, 0, None],    # outlives the parent: clipped to it
        ["grandchild", 12, 18, 1, None],
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_nested_calls_record_parents_and_self_time():
    ticks = itertools.count(0, 10)
    tracer = Tracer(clock=lambda: next(ticks))
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    tracer.install(module, "inner", "inner", note=lambda a, r: (r,))
    tracer.install(module, "outer", "outer")
    module.fails = lambda: 1 / 0
    tracer.install(module, "fails", "fails")
    assert module.outer(1) == 4          # not recording yet
    assert tracer.spans == []
    tracer.enabled = True
    assert module.outer(1) == 4
    outer, inner = tracer.spans
    assert outer[0] == "outer" and outer[3] == -1
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == (2,)
    summary = summarize(tracer.spans)
    assert summary["outer"]["total_ns"] == 30 and summary["outer"]["self_ns"] == 20
    assert summary["inner"]["self_ns"] == 10 and summary["inner"]["note_sum"] == [2]
    with pytest.raises(ZeroDivisionError):
        module.fails()
    fails = summarize(tracer.spans)["fails"]
    assert fails["calls"] == 1 and fails["total_ns"] == 10
    assert fails["p50_ns"] == 0  # only calls that returned count toward quantiles
    tracer.uninstall()
    assert not hasattr(module.inner, "__wrapped__")


def test_coroutine_spans_follow_their_task():
    tracer = Tracer()
    owner = types.SimpleNamespace()

    async def work() -> int:
        await asyncio.sleep(0)
        return 7

    owner.work = work
    tracer.install(owner, "work", "work")
    tracer.enabled = True

    async def main() -> list[int]:
        return await asyncio.gather(owner.work(), owner.work())

    assert asyncio.run(main()) == [7, 7]
    assert [s[3] for s in tracer.spans] == [-1, -1]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_patch_and_install_stack_and_come_off_in_reverse_order():
    class Owner:
        def work(self) -> int:
            return 1

    original = Owner.__dict__["work"]
    tracer = Tracer()
    seen: list[int] = []

    def counting(fn):
        def wrapper(self):
            seen.append(1)
            return fn(self)
        return wrapper

    tracer.patch(Owner, "work", counting)
    tracer.install(Owner, "work", "work")
    tracer.enabled = True
    assert Owner().work() == 1
    assert seen == [1] and [s[0] for s in tracer.spans] == ["work"]
    tracer.uninstall()
    assert Owner.__dict__["work"] is original
