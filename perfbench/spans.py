"""Span recording and the arithmetic the benchmark reports.

The traced pass replaces public functions of ``ralab`` modules, at the
attribute their callers look up, with wrappers that record one span per
call: name, start, end and the enclosing span.  Spans stay in flat arrays
in memory and are written out once, when the traced run ends.  Nothing in
this module touches ``ralab`` itself; the workloads name what to wrap.
"""

from __future__ import annotations

import functools
import heapq
import re
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# candidate quantiles for a tail figure, lowest first
TAIL_QUANTILES = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999)
MIN_BEYOND = 10

_MISSING = object()


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if len(name) > 64 or not NAME_RE.fullmatch(name) or not name[0].isalnum():
        raise ValueError(f"bad metric name {name!r}")
    return name


def tail_quantile(n: int):
    """Highest of ``TAIL_QUANTILES`` with at least ``MIN_BEYOND`` of ``n``
    samples beyond it, or None when even the lowest has fewer."""
    best = None
    for q in TAIL_QUANTILES:
        # n * (1 - q) >= MIN_BEYOND, scaled to avoid 1 - q rounding
        if n * (1.0 - q) >= MIN_BEYOND - 1e-9:
            best = q
    return best


class Tracer:
    """In-memory span store for one traced run (single thread)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(check_name(name))
        return self._ids[name]

    def wrap(self, name: str, fn):
        """A function that records a span around each call of ``fn``."""
        nid = self.name_index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def arrays(self):
        """(name_id, parent, start, end) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def write(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name_id=name_id, parent=parent, start=start, end=end)


def span_totals(names, name_id, parent, start, end) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time.

    A span's self time is its duration minus the durations of its direct
    children.  Spans come from one thread, so children of one span never
    overlap and their durations add up to the part of the parent they cover.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    n = len(dur)
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_sum[:n]
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    self_total = np.bincount(name_id, weights=self_time, minlength=k)
    return {
        name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_total[i])}
        for i, name in enumerate(names)
    }


def layer_self_time(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time summed per layer, the layer being the span-name prefix."""
    out: dict[str, float] = {}
    for name, row in totals.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


def durations(tracer: Tracer, name: str) -> np.ndarray:
    """Durations of every span called ``name``, in call order."""
    name_id, _, start, end = tracer.arrays()
    if name not in tracer._ids:
        return np.empty(0)
    mask = name_id == tracer._ids[name]
    return end[mask] - start[mask]


class CountingHeapq:
    """Stand-in for the ``heapq`` module that counts pushes and pops."""

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)

    def __getattr__(self, name):
        return getattr(heapq, name)


@contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each ``(owner, attr, value)`` and put
    every original back on exit, also when the body raises.  An attribute
    the owner does not have is refused: nothing would look it up."""
    saved = []
    try:
        for owner, attr, value in replacements:
            if not hasattr(owner, attr):
                raise AttributeError(f"{owner!r} has no attribute {attr!r} to replace")
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
