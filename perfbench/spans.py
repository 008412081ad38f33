"""In-memory spans recorded by wrappers installed from outside the program.

The tracer replaces module attributes with timing wrappers for the length of
one traced run and puts the originals back afterwards, so the program itself
carries no tracing code. Each span records its name, layer, start, end,
parent span and run id (one per CLI command); spans stay in a list until
the run ends. ``layers.py`` chooses what to wrap.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: int
    thread: int
    size: int = 0  # rows or bytes handed to the call, where it has one

    def as_dict(self) -> dict[str, Any]:
        return dict(self.__dict__)


class Tracer:
    """Installs wrappers, records spans and counts, and restores on close."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._ids = itertools.count()  # next() is atomic, fold threads share it
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A worker thread started inside a span belongs to that span.
        return self._main_stack[-1] if self._main_stack else None

    def call(self, name: str, layer: str, fn: Callable, *args, size: int = 0, **kwargs):
        """Run ``fn`` inside a span."""
        stack = self._stack()
        span = Span(next(self._ids), name, layer, 0.0, 0.0, self._parent(stack),
                    self.run_id, threading.get_ident(), size)
        self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, module: object, attr: str, layer: str,
             size_of: Callable[..., int] | None = None) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per call."""
        original = getattr(module, attr)
        name = f"{layer}.{getattr(original, '__name__', attr)}"

        def wrapper(*args, **kwargs):
            size = size_of(*args, **kwargs) if size_of is not None else 0
            return self.call(name, layer, original, *args, size=size, **kwargs)

        self._patch(module, attr, original, wrapper)

    def count(self, module: object, attr: str, counter: str) -> None:
        """Replace ``module.attr`` by a wrapper that only counts calls."""
        original = getattr(module, attr)
        counts = self.counts
        counts.setdefault(counter, 0)

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patch(module, attr, original, wrapper)

    def _patch(self, module: object, attr: str, original: object, wrapper: object) -> None:
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def close(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- analysis ---------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.by_name(name))

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in that layer's spans and not in a child.

        A child's time is its interval clipped to the parent; overlapping
        children (fold threads) are merged, so no interval counts twice in
        one parent. Spans of concurrent threads each count in full, so with
        fold threads a layer's total is thread time and can exceed wall time.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out: dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for lo, hi in sorted(children.get(s.id, ())):
                lo, hi = max(lo, cursor), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start) - covered
        return out
