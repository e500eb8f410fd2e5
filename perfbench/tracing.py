"""The benchmark's own spans, and self-time attribution over span trees.

The traced run records a span around each public call the benchmark makes
into the program (build, transient, TFT, RVF, compile, validate, registry
save, server and gateway start, client rounds and requests, the kernel
probe).  Spans stay in memory and are written out when the run ends.

Self time is a span's duration minus the part of its interval that its
children cover, so nested stages are never counted twice.  Root spans — the
benchmark's own ``run`` and the program's per-request ``request`` — cover
everything below them and are never ranked as a stage.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field

#: Name of the benchmark's root span (one per process).
BENCH_ROOT = "run"
#: Name of the root span of every trace the program itself records.
PROGRAM_ROOT = "request"
#: Root spans: never ranked as stages.
ROOT_NAMES = frozenset({BENCH_ROOT, PROGRAM_ROOT})


@dataclass
class Span:
    """One timed interval: ``start``/``end`` on the monotonic clock."""

    name: str
    start: float
    end: float
    span_id: str = ""
    parent: str | None = None
    children: list = field(default_factory=list, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "id": self.span_id, "parent": self.parent}


class Recorder:
    """In-memory span recorder; a no-op when ``enabled`` is False.

    ``with recorder.span(name):`` nests under the innermost open span of the
    same recorder.  Concurrent work (asyncio requests) records finished
    intervals with :meth:`add` and names its parent explicitly.
    """

    def __init__(self, enabled: bool, tag: str = "b") -> None:
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self._tag = tag
        self._ids = itertools.count(1)
        self._open: list[str] = []

    def _next_id(self) -> str:
        return f"{self._tag}{next(self._ids)}"

    @property
    def current(self) -> str | None:
        """Id of the innermost open span (None outside every span)."""
        return self._open[-1] if self._open else None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        span = Span(name, time.monotonic(), 0.0, self._next_id(),
                    self.current)
        self._open.append(span.span_id)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = time.monotonic()
            self.spans.append(span)

    def add(self, name: str, start: float, end: float,
            parent: str | None = None) -> str | None:
        """Record an interval measured elsewhere; returns its id."""
        if not self.enabled:
            return None
        span = Span(name, start, end, self._next_id(), parent)
        self.spans.append(span)
        return span.span_id

    def export(self) -> list[dict]:
        return [span.as_dict() for span in self.spans]


def build_forest(spans) -> list[Span]:
    """Link flat spans (``Span`` or exported dicts) into trees; returns roots.

    A span whose parent is missing from the set becomes a root.
    """
    nodes = []
    for item in spans:
        if isinstance(item, Span):
            node = Span(item.name, item.start, item.end, item.span_id,
                        item.parent)
        else:
            node = Span(item["name"], float(item["start"]),
                        float(item["end"]), str(item["id"]), item["parent"])
        nodes.append(node)
    by_id = {node.span_id: node for node in nodes}
    roots = []
    for node in nodes:
        parent = by_id.get(node.parent) if node.parent is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


def self_time(node) -> float:
    """Duration of ``node`` minus the union of its children's intervals.

    Works on any node with ``start``/``end``/``children`` (children that
    start before or end after the parent are clipped to it; overlapping
    children are counted once).
    """
    start, end = node.start, node.end
    intervals = sorted((max(start, c.start), min(end, c.end))
                       for c in node.children)
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(0.0, (end - start) - covered)


def self_times_by_name(roots) -> dict[str, float]:
    """Summed self time per span name over every tree in ``roots``."""
    totals: dict[str, float] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        totals[node.name] = totals.get(node.name, 0.0) + self_time(node)
        stack.extend(node.children)
    return totals


def rank_stages(totals: dict[str, float]) -> list[tuple[str, float]]:
    """Stages by self time, hottest first; root spans are never ranked."""
    return sorted(((name, value) for name, value in totals.items()
                   if name not in ROOT_NAMES),
                  key=lambda item: item[1], reverse=True)


@dataclass
class _Node:
    """Adapter giving ``repro.telemetry`` span nodes ``start``/``end``."""

    name: str
    start: float
    end: float
    children: list


def from_trace_tree(root) -> _Node:
    """Convert a ``TraceAssembler.tree()`` (``SpanNode``) into ``_Node``s."""
    return _Node(root.name, root.t_start, root.t_end,
                 [from_trace_tree(child) for child in root.children])
