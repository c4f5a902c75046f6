"""Span recording around the public functions of each layer.

The benchmark wraps layer entry points from the outside (nothing in
``src/`` is instrumented): :meth:`Tracer.install` swaps a function or
method on its owner for a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts the originals back.  A span is
``[name, start_ns, end_ns, parent, note, raised]``; the parent is whichever span
was open in the caller's context (a :class:`contextvars.ContextVar`, so
it follows asyncio tasks as well as plain calls).  Spans stay in memory
until :func:`summarize` reduces them.

Self time is a span's duration minus the part of it that its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from typing import Any, Callable

from perfbench.stats import quantile

NOTE = Callable[[tuple, Any], Any]


class Tracer:
    """Records spans while :attr:`enabled`; wrappers are inert otherwise."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.enabled = False
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._installed: list[tuple[object, str, Any]] = []

    def wrap(self, name: str, fn: Callable[..., Any], note: NOTE | None = None) -> Callable[..., Any]:
        """A recording wrapper around ``fn`` (sync or coroutine function)."""
        spans, current, clock = self.spans, self._current, self.clock

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                if not self.enabled:
                    return await fn(*args, **kwargs)
                record = [name, clock(), 0, current.get(), None, False]
                token = current.set(len(spans))
                spans.append(record)
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    record[5] = True
                    raise
                finally:
                    record[2] = clock()
                    current.reset(token)
                if note is not None:
                    record[4] = note(args, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [name, clock(), 0, current.get(), None, False]
            token = current.set(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = clock()
                current.reset(token)
            if note is not None:
                record[4] = note(args, result)
            return result

        return traced

    def install(self, owner: object, attr: str, name: str, note: NOTE | None = None) -> None:
        """Replace ``owner.attr`` by its traced wrapper."""
        self.patch(owner, attr, lambda original: self.wrap(name, original, note))

    def patch(self, owner: object, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`uninstall`.

        Every swap goes through this one list, so wrappers stacked on the
        same attribute come off in the reverse order they went on.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list[Any]]) -> list[int]:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that
    outlives its parent (an asyncio task started inside it) is charged
    only for the overlap.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for record in spans:
        parent = record[3]
        if parent >= 0:
            children.setdefault(parent, []).append((record[1], record[2]))
    out: list[int] = []
    for index, record in enumerate(spans):
        start, end = record[1], record[2]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def summarize(spans: list[list[Any]]) -> dict[str, dict[str, Any]]:
    """Per span name: calls, total and self ns, p50/p99 duration of the
    calls that returned (not raised), the p99 gap between consecutive
    starts, and the column sums of the notes."""
    groups: dict[str, list[tuple[list[Any], int]]] = {}
    for record, own in zip(spans, self_times(spans)):
        groups.setdefault(record[0], []).append((record, own))
    out: dict[str, dict[str, Any]] = {}
    for name, rows in groups.items():
        durations = sorted(r[2] - r[1] for r, _ in rows)
        returned = sorted(r[2] - r[1] for r, _ in rows if not r[5]) or [0]
        starts = sorted(r[1] for r, _ in rows)
        gaps = sorted(b - a for a, b in zip(starts, starts[1:]))
        notes = [r[4] for r, _ in rows if r[4] is not None]
        out[name] = {
            "calls": len(rows),
            "total_ns": sum(durations),
            "self_ns": sum(own for _, own in rows),
            "p50_ns": quantile(returned, 0.50),
            "p99_ns": quantile(returned, 0.99),
            "gap_p99_ns": quantile(gaps, 0.99) if gaps else 0,
            "note_sum": [sum(column) for column in zip(*notes)],
            "note_nonzero": sum(1 for note in notes if note[0] > 0),
        }
    return out
