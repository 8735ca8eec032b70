"""In-memory spans and aggregate counters for the traced benchmark run.

Spans are opened by the benchmark around each call into a layer, and, in
the traced run only, by wrappers rebound over public module-level names
that one layer calls in another. A call that fires far too often for a span
(the Cauchy transform behind Stieltjes inversion fires ~10^5 times per
pass) gets an aggregate counter instead: calls and time are added to the
innermost open span, whose self time excludes them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    layer: str
    op: int | None
    parent: int | None
    start: float
    end: float = 0.0
    items: int = 0          # result size, where the wrapper knows one
    counted_calls: int = 0  # aggregate-counter calls made directly inside this span
    counted_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counter_layer: dict[str, str] = {}
        self._stack: list[Span] = []
        self._restore: list[tuple] = []
        self.op: int | None = None

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, self.op, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span = self.open(name, layer)
        try:
            result = fn(*args, **kwargs)
            if isinstance(result, tuple) and result and hasattr(result[0], "size"):
                span.items = int(result[0].size)
            return result
        finally:
            self.close(span)

    def _counted(self, name: str, layer: str, fn):
        self.counter_layer[name] = layer
        counter = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                counter[0] += 1
                counter[1] += dt
                if self._stack:
                    self._stack[-1].counted_calls += 1
                    self._stack[-1].counted_s += dt
        return wrapper

    def _spanned(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)
        return wrapper

    def rebind(self, owner, attr: str, name: str, layer: str, kind: str) -> None:
        """Replace ``owner.attr`` by a span or counter wrapper until `restore`."""
        original = getattr(owner, attr)
        make = self._spanned if kind == "span" else self._counted
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(name, layer, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus what child spans and counted calls cover.

        Children of one span run one after another on one thread, so their
        intervals never overlap and their durations add up to the covered part.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return {s.id: s.duration - child[s.id] - s.counted_s for s in self.spans}

    def layer_self_seconds(self) -> dict[str, float]:
        out = defaultdict(float)
        for sid, dt in self.self_times().items():
            out[self.spans[sid].layer] += dt
        for name, (_, seconds) in self.counters.items():
            out[self.counter_layer[name]] += seconds
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            for name, (calls, seconds) in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "layer": self.counter_layer[name],
                                     "calls": calls, "seconds": seconds}) + "\n")
