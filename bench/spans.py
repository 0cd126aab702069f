"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start, end and the span that was
open when it started.  Generator functions get one span per ``next()``, so the
time a consumer spends between items is not charged to the generator.  Spans
stay in memory until the run ends; ``self_seconds`` and ``outer_seconds`` turn
them into per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters; ``wrap`` makes traced stand-ins for functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self._open.pop()
        self.spans[idx].end = self.clock()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_call: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """A stand-in for ``fn`` that records a span named ``name`` per call
        (per item for generator functions).  ``on_call`` sees the arguments
        and ``on_result`` each result or item, outside the span."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self.open(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.close(idx)
                        if on_result is not None:
                            on_result(item)
                        yield item
                finally:
                    it.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_calls(self, name: str, fn: Callable) -> Callable:
        """A stand-in that only counts calls, for functions too hot to span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.seconds - covered)
    return out


def outer_seconds(spans: list[Span], names: Iterable[str]) -> float:
    """Total duration of the spans named in ``names`` that no other such span
    encloses, so recursion and nesting inside the set are counted once."""
    names = set(names)
    inside = [False] * len(spans)
    total = 0.0
    for idx, s in enumerate(spans):
        p = s.parent
        inside[idx] = p >= 0 and (inside[p] or spans[p].name in names)
        if s.name in names and not inside[idx]:
            total += s.seconds
    return total
