"""Typed, schema-versioned telemetry events of the serving stack.

Every event is a small frozen dataclass carrying a monotonic timestamp
(``t``, stamped at construction on the publisher's clock) and, where the
event concerns specific requests, the **trace ids** of those requests.  A
trace id is assigned by :meth:`ModelServer.submit
<repro.serve.server.ModelServer.submit>` and rides on the request through
batch coalescing, lane dispatch, shard evaluation and reply resolution.
Events are **batch-scoped** wherever the work is: ``BatchClosed`` and
``BatchServed`` are published once per batch and list their members' trace
ids (``BatchServed`` with each member's queue and end-to-end latency), the
failure events (``WorkerCrashed`` / ``JobTimedOut``) name the ids riding on
the affected job, and a ``SpanClosed`` of a batch or job stage names every
sampled member it covers.  One request's lifecycle is the events naming its
trace id: ``RequestSubmitted`` → ``BatchClosed`` → ``BatchServed``, and its
spans.

Events serialise to plain JSON-able dicts via :meth:`TelemetryEvent.as_dict`
— the payload of the gateway's ``EVENT`` wire frames and of the
:class:`~repro.telemetry.runstore.RunStore` journal — and deserialise back
through :func:`event_from_dict`.  The dict carries ``schema``
(:data:`SCHEMA_VERSION`) so stored runs from older layouts are recognisable,
and ``event`` (the class name), which doubles as the broker **topic**.

Adding an event type: subclass, decorate with :func:`register_event`, keep
the ``t`` field last (it defaults to construction time).
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field, fields

__all__ = [
    "SCHEMA_VERSION",
    "TelemetryEvent",
    "event_from_dict",
    "event_topics",
    "register_event",
    # serving-layer events
    "RequestSubmitted",
    "RequestRejected",
    "BatchClosed",
    "BatchServed",
    "WorkerCrashed",
    "WorkerRespawned",
    "JobTimedOut",
    "CacheEvicted",
    # gateway events
    "ConnectionOpened",
    "ConnectionClosed",
    "ProtocolError",
    "ChunkStreamError",
    # sweep events
    "SweepStarted",
    "ScenarioCompleted",
    "SweepCompleted",
    # metrics / alerting events (the consumer tier)
    "MetricsWindowClosed",
    "AlertRaised",
    "AlertCleared",
    # span tracing / engine profiling
    "SpanClosed",
    "EngineProfile",
]

#: Version of the event payload layout; bumped when a field changes meaning
#: or disappears (adding fields with defaults is backward compatible).
#: 2: ``SpanClosed`` names its member traces in ``trace_ids`` (1 carried one
#: ``trace_id``; such payloads still decode, see :class:`SpanClosed`).
SCHEMA_VERSION = 2

#: Registry of event classes by name — the decode side of the wire/store.
_EVENT_TYPES: dict[str, type] = {}


def register_event(cls: type) -> type:
    """Class decorator: make ``cls`` reconstructable by name."""
    _EVENT_TYPES[cls.__name__] = cls
    return cls


def event_topics() -> tuple[str, ...]:
    """Every registered event/topic name (sorted)."""
    return tuple(sorted(_EVENT_TYPES))


class TelemetryEvent:
    """Base of every telemetry event (mixin over frozen dataclasses)."""

    __slots__ = ()

    @property
    def topic(self) -> str:
        """Broker topic of this event — its class name."""
        return type(self).__name__

    def as_dict(self) -> dict:
        """JSON-able payload: ``event`` + ``schema`` + every field."""
        payload: dict = {"event": self.topic, "schema": SCHEMA_VERSION}
        for spec in fields(self):   # type: ignore[arg-type]
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload


def event_from_dict(payload: dict) -> TelemetryEvent:
    """Rebuild a typed event from its :meth:`~TelemetryEvent.as_dict` form.

    Unknown fields are ignored (forward compatible); an unknown ``event``
    name raises ``KeyError`` naming it — callers that only want the dict can
    skip this and keep the payload as-is.
    """
    name = payload.get("event")
    cls = _EVENT_TYPES.get(name)
    if cls is None:
        raise KeyError(
            f"unknown telemetry event type {name!r} (known: "
            f"{', '.join(event_topics())})")
    kwargs = {}
    # __dataclass_fields__ also lists init-only fields (the schema-1
    # ``SpanClosed.trace_id``), which dataclasses.fields() leaves out.
    for name in cls.__dataclass_fields__:
        if name not in payload:
            continue
        value = payload[name]
        if isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def _now() -> float:
    return time.monotonic()


# --------------------------------------------------------------- serving layer
@register_event
@dataclass(frozen=True)
class RequestSubmitted(TelemetryEvent):
    """A request was admitted by :meth:`ModelServer.submit` (trace id born)."""

    key: str
    n_steps: int
    trace_id: int
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class RequestRejected(TelemetryEvent):
    """A request was refused at submit time (before it could touch a batch)."""

    key: str
    reason: str
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class BatchClosed(TelemetryEvent):
    """A dispatch lane took a lock-step batch of waiting requests.

    Published when the lane takes the batch, i.e. at dispatch: the requests'
    ``t_closed`` stamps (the batching policy's release) can be earlier, when
    the lane was busy at their release.
    """

    key: str
    n_steps: int
    n_rows: int
    trace_ids: tuple = ()
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class BatchServed(TelemetryEvent):
    """A batch finished executing; its futures are about to resolve.

    ``queue_s`` and ``e2e_s`` hold each member's queue latency (the
    batching policy's wait) and end-to-end latency, in ``trace_ids`` order:
    the samples the server folds into its own
    :class:`~repro.serve.stats.ServeStats`, so a consumer's latency
    statistics reconcile with the server's by construction.
    """

    key: str
    n_steps: int
    n_rows: int
    ok: bool
    duration_s: float
    trace_ids: tuple = ()
    queue_s: tuple = ()
    e2e_s: tuple = ()
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class WorkerCrashed(TelemetryEvent):
    """A shard worker died (or its pipe broke) while holding a job."""

    worker_index: int
    key: str = ""
    trace_ids: tuple = ()
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class WorkerRespawned(TelemetryEvent):
    """A crashed/wedged shard worker was replaced with a fresh process."""

    worker_index: int
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class JobTimedOut(TelemetryEvent):
    """A shard job missed ``ServePolicy.job_timeout`` (wedged worker)."""

    worker_index: int
    key: str = ""
    timeout_s: float = 0.0
    trace_ids: tuple = ()
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class CacheEvicted(TelemetryEvent):
    """The dispatcher's byte-budget LRU evicted a warm model."""

    key: str
    nbytes: int
    t: float = field(default_factory=_now)


# -------------------------------------------------------------------- gateway
@register_event
@dataclass(frozen=True)
class ConnectionOpened(TelemetryEvent):
    """The gateway accepted a TCP connection (past admission control)."""

    peer: str
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class ConnectionClosed(TelemetryEvent):
    """An accepted gateway connection ended (either side)."""

    peer: str
    n_requests: int = 0
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class ProtocolError(TelemetryEvent):
    """A malformed frame (request- or connection-scoped) on a connection."""

    peer: str
    code: int
    request_id: int = 0
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class ChunkStreamError(TelemetryEvent):
    """A chunked (streaming) request series failed reassembly.

    Distinct from :class:`ProtocolError` so dashboards can tell truncated /
    inconsistent streams apart from garbled single frames; mirrored by the
    ``n_chunk_stream_errors`` gateway counter.
    """

    peer: str
    request_id: int = 0
    detail: str = ""
    t: float = field(default_factory=_now)


# ---------------------------------------------------------------------- sweep
@register_event
@dataclass(frozen=True)
class SweepStarted(TelemetryEvent):
    """A scenario sweep began executing."""

    n_scenarios: int
    n_workers: int = 1
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class ScenarioCompleted(TelemetryEvent):
    """One sweep scenario finished (``ok=False`` carries no traceback —
    the :class:`~repro.sweep.runner.ScenarioResult` does)."""

    name: str
    ok: bool
    wall_time_s: float
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class SweepCompleted(TelemetryEvent):
    """A scenario sweep finished; counts mirror ``SweepResult``."""

    n_ok: int
    n_failed: int
    wall_time_s: float
    t: float = field(default_factory=_now)


# ------------------------------------------------- span tracing / profiling
@register_event
@dataclass(frozen=True)
class SpanClosed(TelemetryEvent):
    """One closed span: a stage of the lifecycle of every trace it names.

    Published by :class:`~repro.telemetry.spans.Tracer` when a sampled
    span closes.  ``trace_ids`` are the sampled traces the stage belongs
    to: one for a per-request stage (``serve_queue``, the ``request``
    root, the gateway stages), every sampled member of the batch or shard
    job for a stage that batch or job ran once (``serve_execute``,
    ``worker_evaluate``, ...) — one span shared by many traces, like an
    OpenTelemetry span link.  Consumers fan it out to its members: each
    member's trace tree, journal row and stage sample is what a span of
    that member alone would give.  ``name`` is the stage — dot-free, so
    per-stage window metrics stay addressable by
    :class:`~repro.telemetry.alerts.AlertRule` dotted paths
    (``stages.worker_evaluate.p95_s``).  ``parent`` names the enclosing
    stage (``""`` marks the trace root); stage names are unique within a
    trace except across shard retries, where repeated attempt-stage spans
    become **siblings** under the same parent.  ``worker_index`` is the
    shard worker that executed a worker-side stage (``-1`` elsewhere);
    worker stages are stamped in the reply descriptor and materialised by
    the parent process, never published from the worker itself.

    ``trace_id`` is an init-only shorthand for a single-member span, and
    the field schema-1 payloads carry: ``event_from_dict`` of such a
    payload builds the same single-member span.  It is not stored; read
    ``trace_ids``.
    """

    name: str
    t_start: float
    duration_s: float
    trace_ids: tuple = ()
    parent: str = ""
    worker_index: int = -1
    trace_id: InitVar[int] = 0
    t: float = field(default_factory=_now)

    def __post_init__(self, trace_id: int) -> None:
        if trace_id:
            object.__setattr__(self, "trace_ids", (int(trace_id),))


@register_event
@dataclass(frozen=True)
class EngineProfile(TelemetryEvent):
    """Engine hot-path counters of one completed transient scenario.

    Emitted by :func:`~repro.sweep.runner.run_sweep` alongside
    ``ScenarioCompleted``, surfacing what the solver spent its time on:
    Newton iterations, LTE accept/reject traffic, and the
    :class:`~repro.circuit.linalg.FactorizationCache` factorisations and
    reuses (``cache_hit_rate`` = reuses / solves, 0.0 when the cache was
    disabled or never consulted).  ``wall_time_s`` is the transient's
    :attr:`~repro.circuit.transient.TransientResult.wall_time`: a transient
    family's time split equally over its scenarios, so the profiles of a
    sweep sum to the engine time actually spent.
    """

    name: str
    newton_iterations: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    lte_rejections: int = 0
    cache_factorizations: int = 0
    cache_reuses: int = 0
    cache_hit_rate: float = 0.0
    wall_time_s: float = 0.0
    t: float = field(default_factory=_now)


# --------------------------------------------------------- metrics / alerting
@register_event
@dataclass(frozen=True)
class MetricsWindowClosed(TelemetryEvent):
    """A :class:`~repro.telemetry.metrics.MetricsAggregator` window closed.

    Republished through the same broker the raw events came from, so any
    subscriber (in-process or over the gateway's ``EVENTS_SUBSCRIBE`` wire)
    receives pre-aggregated operational metrics without re-deriving them
    from the raw stream.  ``queue_latency`` / ``e2e_latency`` are
    :meth:`LatencySummary.as_dict <repro.serve.stats.LatencySummary.as_dict>`
    payloads of the window-wide summaries — the exact merge of the
    per-model slices, with percentiles within
    :data:`~repro.serve.stats.ALPHA` (1%) relative; ``per_model`` maps
    model key → that model's window slice (rows, batches, throughput, fill
    ratio, latency summaries); ``stages`` maps span stage name → that
    stage's window latency summary (fed by ``SpanClosed`` events,
    addressable by alert rules as ``stages.<stage>.p95_s``).  The payloads
    carry percentiles, not buckets: roll-ups merge the aggregator's typed
    window ring in-process (:class:`~repro.telemetry.metrics.MetricsReport`).
    """

    window_index: int
    t_start: float
    t_end: float
    n_submitted: int = 0
    n_served: int = 0
    n_failed: int = 0
    n_batches: int = 0
    throughput_rps: float = 0.0
    fill_ratio: float = 0.0
    queue_latency: dict = field(default_factory=dict)
    e2e_latency: dict = field(default_factory=dict)
    per_model: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    n_rejected: int = 0
    n_crashes: int = 0
    n_respawns: int = 0
    n_timeouts: int = 0
    n_evictions: int = 0
    n_subscriber_dropped: int = 0
    n_late: int = 0
    n_unmatched: int = 0
    queue_depth: int = 0
    n_events: int = 0
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class AlertRaised(TelemetryEvent):
    """An :class:`~repro.telemetry.alerts.AlertRule` breached its threshold
    for ``raise_after`` consecutive closed windows."""

    name: str
    metric: str
    value: float
    threshold: float
    window_index: int
    detail: str = ""
    t: float = field(default_factory=_now)


@register_event
@dataclass(frozen=True)
class AlertCleared(TelemetryEvent):
    """A raised alert recovered: its rule stayed within bounds for
    ``clear_after`` consecutive closed windows (hysteresis)."""

    name: str
    metric: str
    value: float
    threshold: float
    window_index: int
    detail: str = ""
    t: float = field(default_factory=_now)
