"""Hierarchical span tracing keyed to the serving stack's trace ids.

PR 9's windowed metrics answer *how slow* a request was; this module
answers *where the time went*.  A :class:`Tracer` hangs off the server's
:class:`~repro.telemetry.broker.TopicBroker` and records **spans** — named,
timed stages of a request's lifecycle, keyed by the trace id that already
rides submit → batch → shard → reply.  Closed spans publish as ordinary
:class:`~repro.telemetry.events.SpanClosed` events, so they reach every
existing consumer unchanged: the gateway's ``EVENTS_SUBSCRIBE`` wire, the
:class:`~repro.telemetry.metrics.MetricsAggregator` (per-stage ``stages``
window section), and the :class:`~repro.telemetry.runstore.RunStore`
journal (dedicated ``spans`` table).

Design points:

* **falsy off switch** — ``bool(tracer)`` is False while no live
  subscription accepts ``SpanClosed`` (or ``sample_rate`` is 0), so hot
  paths pay one check and nothing else, also while other topics are
  watched;
* **batch-scoped spans** — a stage a batch or a shard job runs once
  (``serve_execute``, ``shard_lease``, ``worker_evaluate``, ...) is **one**
  span naming every sampled member (``SpanClosed.trace_ids``), collected
  per batch by :class:`SpanBatch`; per-request stages (``serve_queue``,
  ``serve_coalesce``, the ``request`` root, the gateway stages) name one
  trace.  Consumers fan a span out to its members, so trees, journal rows
  and stage statistics are those of one span per member;
* **head-based sampling, decided here only** — the keep/drop decision is a
  seeded hash of the trace id (:meth:`Tracer.sampled`), made once per
  member when a :class:`SpanBatch` is opened, deterministically, so a
  sampled-out trace produces **zero** spans across every layer and tests
  can pin the decision.  No other module calls :meth:`Tracer.sampled`;
* **one recording form** — every span is added to a :class:`SpanBatch`
  (:meth:`Tracer.batch`) from timestamps its recording site captured, and
  published by :meth:`SpanBatch.flush`, outside any lock (REP107).  The
  server opens one per batch; the gateway opens one per request at decode
  and reuses it for the request's encode and write stages.  Shard workers
  never see the tracer (REP106): the parent adds their spans from the
  timings stamped into the reply descriptors;
* **name-linked hierarchy** — a span names its ``parent`` stage instead of
  carrying a pointer, so spans can close in any order on any thread and
  :class:`TraceAssembler` still rebuilds the tree; retried shard attempts
  repeat a stage name and become siblings.

:func:`describe_trace` renders one assembled trace as a terminal
waterfall; :meth:`TraceAssembler.critical_path` walks the tree picking the
latest-ending child at every level — the chain a latency fix must shorten.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from .broker import TopicBroker
from .events import SpanClosed, event_from_dict

__all__ = [
    "ROOT_SPAN",
    "SpanBatch",
    "SpanNode",
    "Tracer",
    "TracerConfig",
    "TraceAssembler",
    "describe_trace",
    "subscribe_spans",
]

#: Stage name of every trace's root span (the end-to-end request).
ROOT_SPAN = "request"

#: Knuth multiplicative-hash constant for the sampling decision.
_HASH_MULT = 2654435761


@dataclass(frozen=True)
class TracerConfig:
    """Sampling policy of a :class:`Tracer`.

    ``sample_rate`` is the kept fraction of traces in [0, 1]; the per-trace
    decision is a pure function of ``(seed, trace_id)``, so two tracers
    with the same config agree on every trace and tests can choose seeds
    that keep (or drop) specific ids deterministically.
    """

    sample_rate: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be within [0, 1], got {self.sample_rate}")


class Tracer:
    """Low-overhead span recorder over a :class:`TopicBroker`.

    Falsy while tracing cannot go anywhere (no live subscription accepts
    ``SpanClosed``) or is switched off (``sample_rate`` 0) —
    instrumentation sites guard with ``if tracer:`` exactly like event
    publication guards with ``if broker:``, so the untraced hot path pays
    one check.
    """

    __slots__ = ("_broker", "config")

    def __init__(self, broker: TopicBroker,
                 config: TracerConfig | None = None) -> None:
        self._broker = broker
        self.config = config or TracerConfig()

    def __bool__(self) -> bool:
        return (self.config.sample_rate > 0.0
                and self._broker.accepts("SpanClosed"))

    def sampled(self, trace_id: int) -> bool:
        """The head-based keep/drop decision for one trace (deterministic)."""
        rate = self.config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        mixed = (int(trace_id) * _HASH_MULT + self.config.seed) & 0xFFFFFFFF
        mixed ^= mixed >> 16
        mixed = (mixed * 0x45D9F3B) & 0xFFFFFFFF
        mixed ^= mixed >> 16
        return mixed < rate * 4294967296.0

    def batch(self, trace_ids) -> "SpanBatch":
        """The span collector of one batch (or one gateway request) whose
        members are ``trace_ids``.

        The sampling decision is made here, once per member; the batch's
        stages then publish in one broker hop on :meth:`SpanBatch.flush`
        (:meth:`~repro.telemetry.broker.TopicBroker.publish_many`).
        """
        return SpanBatch(self, trace_ids)


class SpanBatch:
    """The spans of one batch (or one gateway request), published in one
    broker hop.

    :meth:`add` closes one span for the sampled members it names — every
    sampled member by default (a batch stage), a shard job's rows, or one
    request — and skips it when none of them is sampled; it clamps a
    negative duration to zero.  :meth:`flush` publishes what was added
    since the last flush; call it **outside any lock** (REP107, and
    lockwatch attributes the publish to the ``flush()`` line).  Falsy when
    no member is sampled, so a caller can skip its timestamps.
    """

    __slots__ = ("_tracer", "_members", "_kept", "_events")

    def __init__(self, tracer: Tracer, trace_ids) -> None:
        self._tracer = tracer
        every = tracer.config.sample_rate >= 1.0
        self._members = (tuple(trace_ids) if every else
                         tuple(t for t in trace_ids if tracer.sampled(t)))
        self._kept = None if every else frozenset(self._members)
        self._events: list[SpanClosed] = []

    def __bool__(self) -> bool:
        return bool(self._members)

    def add(self, name: str, t_start: float, duration_s: float,
            parent: str = ROOT_SPAN, worker_index: int = -1,
            trace_ids=None) -> None:
        if trace_ids is None:
            trace_ids = self._members
        elif self._kept is not None:
            trace_ids = [t for t in trace_ids if t in self._kept]
        if trace_ids:
            self._events.append(SpanClosed(
                name=name, trace_ids=tuple(trace_ids),
                t_start=float(t_start),
                duration_s=max(0.0, float(duration_s)), parent=parent,
                worker_index=int(worker_index)))

    def flush(self) -> None:
        if self._events:
            self._tracer._broker.publish_many(self._events)
            self._events = []


# --------------------------------------------------------------- assembly

@dataclass
class SpanNode:
    """One span inside an assembled trace tree."""

    name: str
    trace_id: int
    t_start: float
    duration_s: float
    parent: str = ""
    worker_index: int = -1
    children: list = field(default_factory=list)

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration_s

    def walk(self):
        """This node, then every descendant (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()


class TraceAssembler:
    """Rebuild per-trace span trees from a ``SpanClosed`` stream.

    Feed it events (typed or ``as_dict`` payloads, of either schema) in any
    order; a span naming several traces adds one node to each member's
    trace.  :meth:`tree` links children to parents **by stage name**
    within one trace.  When a parent stage appears more than once (retried
    shard attempts), a child attaches to the instance whose time window
    contains its start, falling back to the last-started instance — so
    retry spans land under the attempt that produced them and nothing is
    orphaned.
    """

    def __init__(self) -> None:
        self._spans: dict[int, list[SpanNode]] = {}

    def add(self, item) -> None:
        """Ingest one span (ignores any non-``SpanClosed`` payload)."""
        if isinstance(item, dict) and item.get("event") == "SpanClosed":
            item = event_from_dict(item)
        if not isinstance(item, SpanClosed):
            return
        for trace_id in item.trace_ids:
            self._spans.setdefault(trace_id, []).append(SpanNode(
                name=item.name, trace_id=trace_id, t_start=item.t_start,
                duration_s=item.duration_s, parent=item.parent,
                worker_index=item.worker_index))

    def extend(self, items) -> None:
        for item in items:
            self.add(item)

    def trace_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._spans))

    def spans(self, trace_id: int) -> list[SpanNode]:
        """Every recorded span of a trace, in start order (flat)."""
        return sorted(self._spans.get(trace_id, ()),
                      key=lambda node: node.t_start)

    def tree(self, trace_id: int) -> SpanNode | None:
        """The trace's span tree rooted at :data:`ROOT_SPAN` (or None).

        Built fresh on every call from the flat span list, so late spans
        (a gateway write landing after the root closed) slot in on the
        next call.  A span naming an absent parent attaches to the root —
        a visible mis-parenting beats a silently dropped span.
        """
        recorded = self.spans(trace_id)
        if not recorded:
            return None
        nodes = [SpanNode(name=s.name, trace_id=s.trace_id,
                          t_start=s.t_start, duration_s=s.duration_s,
                          parent=s.parent, worker_index=s.worker_index)
                 for s in recorded]
        by_name: dict[str, list[SpanNode]] = {}
        for node in nodes:
            by_name.setdefault(node.name, []).append(node)
        roots = by_name.get(ROOT_SPAN)
        root = roots[0] if roots else None
        orphans = []
        for node in nodes:
            if node is root:
                continue
            candidates = by_name.get(node.parent)
            if candidates is None or node in candidates:
                orphans.append(node)
                continue
            chosen = None
            for candidate in candidates:
                if candidate.t_start <= node.t_start <= candidate.t_end:
                    chosen = candidate
                    break
            if chosen is None:
                started_before = [c for c in candidates
                                  if c.t_start <= node.t_start]
                chosen = max(started_before, key=lambda c: c.t_start) \
                    if started_before else candidates[0]
            chosen.children.append(node)
        if root is None:
            # Rootless trace (root span lost): synthesise one covering the
            # recorded extent so the tree is still renderable.
            root = SpanNode(name=ROOT_SPAN, trace_id=trace_id,
                            t_start=nodes[0].t_start,
                            duration_s=max(n.t_end for n in nodes)
                            - nodes[0].t_start)
        for node in orphans:
            root.children.append(node)
        for node in nodes:
            node.children.sort(key=lambda child: child.t_start)
        root.children.sort(key=lambda child: child.t_start)
        return root

    def complete(self, trace_id: int) -> bool:
        """True when the trace recorded its own root span."""
        return any(node.name == ROOT_SPAN
                   for node in self._spans.get(trace_id, ()))

    def critical_path(self, trace_id: int) -> list[SpanNode]:
        """Root-to-leaf chain through the latest-ending child per level.

        The stage sequence whose durations bound the trace's end-to-end
        latency: shortening any other branch cannot move the finish line.
        """
        root = self.tree(trace_id)
        if root is None:
            return []
        path = [root]
        node = root
        while node.children:
            node = max(node.children, key=lambda child: child.t_end)
            path.append(node)
        return path

    def stage_totals(self, trace_id: int) -> dict[str, float]:
        """Summed duration per stage name (retry attempts accumulate)."""
        totals: dict[str, float] = {}
        for node in self._spans.get(trace_id, ()):
            totals[node.name] = totals.get(node.name, 0.0) + node.duration_s
        return totals


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f} s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f} ms"
    return f"{seconds * 1e6:8.1f} µs"


def describe_trace(assembler: TraceAssembler, trace_id: int,
                   width: int = 48) -> str:
    """Render one trace as an indented terminal waterfall.

    One line per span, indented by tree depth, with a bar positioned on
    the root's timeline — stages on the critical path are marked ``*``::

        trace 7 — 11 spans, e2e 12.431 ms
        request                 12.431 ms |################################| *
          serve_queue            1.204 ms |###.............................|
          serve_execute         10.807 ms |...###########################..| *
            worker_evaluate      9.112 ms |....######################......| *
    """
    root = assembler.tree(trace_id)
    if root is None:
        return f"trace {trace_id} — no spans recorded"
    span = max(root.duration_s, 1e-12)
    # Walk the critical path on THIS tree: critical_path() would rebuild a
    # fresh one whose node identities never match the nodes rendered here.
    critical = set()
    node = root
    while True:
        critical.add(id(node))
        if not node.children:
            break
        node = max(node.children, key=lambda child: child.t_end)
    n_spans = len(assembler.spans(trace_id))
    lines = [f"trace {trace_id} — {n_spans} spans, "
             f"e2e {root.duration_s * 1e3:.3f} ms"]

    def _render(node: SpanNode, depth: int) -> None:
        lo = (node.t_start - root.t_start) / span
        hi = (node.t_end - root.t_start) / span
        left = min(width, max(0, int(round(lo * width))))
        right = min(width, max(left + 1, int(round(hi * width))))
        bar = "." * left + "#" * (right - left) + "." * (width - right)
        label = "  " * depth + node.name
        worker = f" w{node.worker_index}" if node.worker_index >= 0 else ""
        mark = " *" if id(node) in critical else ""
        lines.append(f"{label:<26} {_format_duration(node.duration_s)} "
                     f"|{bar}|{worker}{mark}")
        for child in node.children:
            _render(child, depth + 1)

    _render(root, 0)
    return "\n".join(lines)


@contextlib.contextmanager
def subscribe_spans(broker: TopicBroker, maxsize: int = 65536):
    """Context manager: a :class:`TraceAssembler` fed from ``broker``.

    Convenience for tests and tools: subscribes to the ``SpanClosed``
    topic and yields ``(assembler, subscription)``; callers drain the
    subscription into the assembler whenever they want a current view,
    and exit drains whatever is still queued.
    """
    assembler = TraceAssembler()
    with broker.subscribe(topics=("SpanClosed",), maxsize=maxsize) as sub:
        try:
            yield assembler, sub
        finally:
            assembler.extend(sub.drain())
