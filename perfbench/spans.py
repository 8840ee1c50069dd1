"""In-memory spans recorded by wrappers installed around the program's
public names.

A span is (name, start, end, parent, op, info). ``parent`` is the index of
the span that was open when it started (-1 for none); ``op`` is the
operation id shared by every span of one step, request or command; ``info``
is a small number or tuple the wrapper computed from the call (a GEMM
shape, a byte count). Wrappers replace module attributes, so they see the
calls the program makes through those names and nothing inside them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[tuple[int, int]] = []   # open (span, op)
        self._ops = 0
        self._patches: list = []
        self.checked = 0
        self.failures: list[str] = []

    def _begin(self, starts_op: bool) -> tuple[int, int, int]:
        parent, op = self._stack[-1] if self._stack else (-1, 0)
        if starts_op or parent < 0:
            self._ops += 1
            op = self._ops
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append((idx, op))
        return idx, parent, op

    def _end(self, idx, name, start, parent, op) -> None:
        self.spans[idx] = (name, start, clock(), parent, op, None)
        self._stack.pop()

    @contextmanager
    def span(self, name: str, starts_op: bool = False):
        """Record the enclosed block as one span."""
        idx, parent, op = self._begin(starts_op)
        start = clock()
        try:
            yield
        finally:
            self._end(idx, name, start, parent, op)

    def wrap(self, fn: Callable, name: str | Callable, starts_op: bool = False,
             info: Callable | None = None,
             check: Callable | None = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``name`` may be a function of the call's arguments. ``info(args,
        kwargs, result)`` is evaluated after the span closes; ``check(result)``
        too, and a false answer is counted as a failed operation.
        """
        begin, end = self._begin, self._end

        def wrapper(*args, **kwargs):
            idx, parent, op = begin(starts_op)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx, name if isinstance(name, str) else name(args, kwargs),
                    start, parent, op)
            if info is not None:
                self.spans[idx] = self.spans[idx][:5] + (
                    info(args, kwargs, result),)
            if check is not None:
                self.check(check(result), f"{self.spans[idx][0]} span {idx}")
            return result

        return wrapper

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """A wrapper recording one span per item the generator yields."""
        begin, end = self._begin, self._end

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx, parent, op = begin(False)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end(idx, name, start, parent, op)
                yield item

        return wrapper

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check; remember what failed."""
        self.checked += 1
        if not ok:
            self.failures.append(what)
        return ok

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start_s, end_s, parent, op, info."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


def covered(intervals: Iterable[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        kids = [(spans[c][1], spans[c][2]) for c in children[i]]
        out.append(end - start - covered(kids, start, end))
    return out


def span_cost_s(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    best = {}
    for fn in (noop, wrapped, noop, wrapped):
        start = clock()
        for _ in range(calls):
            fn()
        best[fn] = min(best.get(fn, float("inf")), clock() - start)
    return max(best[wrapped] - best[noop], 0.0) / calls
