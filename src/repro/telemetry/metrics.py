"""Windowed operational metrics folded from the telemetry event stream.

:class:`MetricsAggregator` is the first *consumer* tier over the push
telemetry of PR 7: it subscribes to the serving-layer events of a
:class:`~repro.telemetry.broker.TopicBroker` and folds them into
fixed-duration windows kept in a ring buffer — per-model throughput,
p50/p95/p99 queue and end-to-end latency, batch-fill ratio against
``max_batch``, in-flight depth, and rejection / crash / timeout / eviction
/ subscriber-drop rates.  The latency samples are the per-member
``queue_s`` / ``e2e_s`` each ``BatchServed`` carries — the very samples the
server folds into :class:`~repro.serve.stats.ServeStats` — so a window's
queue latency *is* the server's (the batching policy's wait; the wait for a
free lane is the ``serve_coalesce`` span stage) and the windows merged over
a run reconcile with ``ServeStats`` bucket for bucket.  One of each
builds the windows: every served batch becomes one
:class:`ModelWindowMetrics` slice (its latencies summarised with
:class:`~repro.serve.stats.LatencySummary`), and one
:meth:`ModelWindowMetrics.merge` closes a window over its batches' slices
and rolls windows up into a :class:`MetricsReport` — itself a
:class:`WindowMetrics` spanning them.  The merges are exact, so a
rolled-up p99 is the p99 of all the rolled-up samples (within
:data:`~repro.serve.stats.ALPHA`).  One tuple, :data:`WINDOW_COUNTERS`,
names the counters every window, roll-up and payload carries.

Windowing is **event-time** on the publisher's monotonic clock (every event
carries ``t`` stamped at construction), so the aggregator computes the same
windows whether it runs live behind the broker or replays a journaled
stream through :meth:`ingest`.  Out-of-order events that arrive after their
window closed are clamped into the current window and counted (``n_late``)
rather than dropped.  ``queue_depth`` counts requests in flight (+1 per
``RequestSubmitted``, minus the rows of each ``BatchServed``); served rows
beyond that count — their ``RequestSubmitted`` was lost to a
slow-subscriber drop, or published before the aggregator subscribed — are
counted (``n_unmatched``), so a lossy stream degrades the counts, never the
aggregator.

On every window close the aggregator republishes a schema-versioned
:class:`~repro.telemetry.events.MetricsWindowClosed` event through the same
broker, which makes pre-aggregated metrics available to every existing
transport for free: in-process subscriptions, the gateway's
``EVENTS_SUBSCRIBE`` wire frames, and :class:`RunRecorder` journals.  The
:mod:`~repro.telemetry.alerts` rules evaluate exactly these events.

All shared state sits behind a ``lockwatch``-monitored lock
(``telemetry.metrics``); republishing happens strictly outside it, keeping
both the REP102 linter and the runtime lock sanitizer clean.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..checks import lockwatch
from ..serve.stats import LatencySummary
from .broker import TopicBroker
from .events import MetricsWindowClosed

__all__ = ["MetricsAggregator", "MetricsReport", "ModelWindowMetrics",
           "WindowMetrics"]

#: How long the consuming thread blocks before checking for idle windows.
_POLL_S = 0.1


#: The counters of a metrics window, in :class:`WindowMetrics` field order:
#: the open window accumulates them, a roll-up sums them, and every
#: payload (:meth:`WindowMetrics.as_dict`, the ``MetricsWindowClosed``
#: event) carries them.
WINDOW_COUNTERS = ("n_submitted", "n_served", "n_failed", "n_batches",
                   "n_rejected", "n_crashes", "n_respawns", "n_timeouts",
                   "n_evictions", "n_subscriber_dropped", "n_late",
                   "n_unmatched", "n_events")


@dataclass(frozen=True)
class ModelWindowMetrics:
    """One model's slice of one closed metrics window (or of a roll-up)."""

    key: str
    n_batches: int = 0
    n_rows: int = 0
    n_served: int = 0
    n_failed: int = 0
    max_batch: int = 0
    queue_latency: LatencySummary = LatencySummary()
    e2e_latency: LatencySummary = LatencySummary()

    @classmethod
    def merge(cls, slices, max_batch: int = 0) -> "ModelWindowMetrics":
        """One model's slices as one: counters add, summaries merge exactly.

        A window closes by merging the slices of its batches, a roll-up by
        merging the slices of its windows.  ``max_batch`` 0 keeps the
        slices' own.
        """
        return cls(key=slices[0].key,
                   n_batches=sum(m.n_batches for m in slices),
                   n_rows=sum(m.n_rows for m in slices),
                   n_served=sum(m.n_served for m in slices),
                   n_failed=sum(m.n_failed for m in slices),
                   max_batch=max_batch or max(m.max_batch for m in slices),
                   queue_latency=LatencySummary.merge(
                       m.queue_latency for m in slices),
                   e2e_latency=LatencySummary.merge(
                       m.e2e_latency for m in slices))

    @property
    def mean_batch_size(self) -> float:
        return (self.n_rows / self.n_batches) if self.n_batches else 0.0

    @property
    def fill_ratio(self) -> float:
        """Mean batch occupancy vs ``max_batch`` (0.0 when unknown)."""
        if not self.max_batch or not self.n_batches:
            return 0.0
        return self.mean_batch_size / self.max_batch

    def as_dict(self) -> dict:
        return {"key": self.key, "n_batches": self.n_batches,
                "n_rows": self.n_rows, "n_served": self.n_served,
                "n_failed": self.n_failed, "max_batch": self.max_batch,
                "mean_batch_size": self.mean_batch_size,
                "fill_ratio": self.fill_ratio,
                "queue_latency": self.queue_latency.as_dict(),
                "e2e_latency": self.e2e_latency.as_dict()}


@dataclass(frozen=True)
class WindowMetrics:
    """One closed fixed-duration window of aggregated serving metrics.

    The typed form of the :class:`MetricsWindowClosed` event (which
    :meth:`as_event` builds from it), and the one window type: the ring
    buffer keeps these, and a :class:`MetricsReport` is one spanning several
    of them, so roll-ups merge :class:`LatencySummary` values without
    round-tripping through dicts.  A window nobody sent traffic through is
    all zeros — never NaN.
    """

    index: int
    t_start: float
    t_end: float
    n_submitted: int = 0
    n_served: int = 0
    n_failed: int = 0
    n_batches: int = 0
    n_rejected: int = 0
    n_crashes: int = 0
    n_respawns: int = 0
    n_timeouts: int = 0
    n_evictions: int = 0
    n_subscriber_dropped: int = 0
    n_late: int = 0
    n_unmatched: int = 0
    n_events: int = 0
    queue_depth: int = 0
    max_batch: int = 0
    queue_latency: LatencySummary = LatencySummary()
    e2e_latency: LatencySummary = LatencySummary()
    #: Per-model slices keyed by model key (:class:`ModelWindowMetrics`).
    per_model: dict = field(default_factory=dict)
    #: Per-stage latency keyed by span stage name (:class:`LatencySummary`),
    #: fed by ``SpanClosed`` events when the server's tracer is sampling.
    stages: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start

    @property
    def throughput_rps(self) -> float:
        """Served rows per second over the window."""
        return (self.n_served / self.duration_s) if self.duration_s else 0.0

    @property
    def mean_batch_size(self) -> float:
        rows = sum(m.n_rows for m in self.per_model.values())
        return (rows / self.n_batches) if self.n_batches else 0.0

    @property
    def fill_ratio(self) -> float:
        if not self.max_batch or not self.n_batches:
            return 0.0
        return self.mean_batch_size / self.max_batch

    def as_dict(self) -> dict:
        """Plain (JSON-safe) values: the ``MetricsWindowClosed`` payload
        fields other than the window index."""
        return {"t_start": self.t_start, "t_end": self.t_end,
                **{name: getattr(self, name) for name in WINDOW_COUNTERS},
                "queue_depth": self.queue_depth,
                "throughput_rps": self.throughput_rps,
                "fill_ratio": self.fill_ratio,
                "queue_latency": self.queue_latency.as_dict(),
                "e2e_latency": self.e2e_latency.as_dict(),
                "per_model": {key: m.as_dict()
                              for key, m in self.per_model.items()},
                "stages": {name: summary.as_dict()
                           for name, summary in self.stages.items()}}

    def as_event(self) -> MetricsWindowClosed:
        """The wire/journal form republished on window close."""
        return MetricsWindowClosed(window_index=self.index, **self.as_dict())


@dataclass(frozen=True)
class MetricsReport(WindowMetrics):
    """Rolling roll-up over the last N closed windows (typed snapshot).

    A :class:`WindowMetrics` spanning its windows: counters add up,
    per-model slices and latency summaries merge exactly (so the report's
    percentiles are those of every sample in the rolled-up windows), and
    the rates are over the windows' summed duration.  ``index`` is that of
    the newest window; ``queue_depth`` is the in-flight count when the
    report was taken.
    """

    window_s: float = 0.0
    n_windows: int = 0
    #: The closed windows the report was merged from (oldest first).
    windows: tuple = ()

    @classmethod
    def of(cls, windows, window_s: float, queue_depth: int = 0,
           max_batch: int = 0) -> "MetricsReport":
        """Merge closed windows into one rolling report (zeros when none)."""
        windows = tuple(windows)
        per_model: dict = {}
        per_stage: dict = {}
        for window in windows:
            for key, m in window.per_model.items():
                per_model.setdefault(key, []).append(m)
            for stage, summary in window.stages.items():
                per_stage.setdefault(stage, []).append(summary)
        return cls(
            index=windows[-1].index if windows else 0,
            t_start=windows[0].t_start if windows else 0.0,
            t_end=windows[-1].t_end if windows else 0.0,
            **{name: sum(getattr(w, name) for w in windows)
               for name in WINDOW_COUNTERS},
            queue_depth=queue_depth, max_batch=max_batch,
            queue_latency=LatencySummary.merge(
                w.queue_latency for w in windows),
            e2e_latency=LatencySummary.merge(w.e2e_latency for w in windows),
            per_model={key: ModelWindowMetrics.merge(slices, max_batch)
                       for key, slices in per_model.items()},
            stages={stage: LatencySummary.merge(summaries)
                    for stage, summaries in per_stage.items()},
            window_s=window_s, n_windows=len(windows), windows=windows)

    @property
    def duration_s(self) -> float:
        """Summed duration of the rolled-up windows (the rates' base)."""
        return sum(w.duration_s for w in self.windows)

    def as_dict(self) -> dict:
        return {"window_s": self.window_s, "n_windows": self.n_windows,
                "max_batch": self.max_batch, **super().as_dict()}

    def describe(self) -> str:
        lines = [
            f"{self.n_windows} window(s) x {self.window_s:g} s: "
            f"{self.throughput_rps:.0f} rows/s "
            f"(fill {self.fill_ratio * 100.0:.0f}%), depth {self.queue_depth}; "
            f"e2e p50 {self.e2e_latency.p50 * 1e3:.2f} / "
            f"p95 {self.e2e_latency.p95 * 1e3:.2f} / "
            f"p99 {self.e2e_latency.p99 * 1e3:.2f} ms; "
            f"queue p95 {self.queue_latency.p95 * 1e3:.2f} ms; "
            f"{self.n_rejected} rejected, {self.n_crashes} crash(es), "
            f"{self.n_timeouts} timeout(s), {self.n_evictions} eviction(s), "
            f"{self.n_subscriber_dropped} dropped"]
        for key, m in self.per_model.items():
            lines.append(
                f"  model {key[:12]}...: {m.n_served} served / "
                f"{m.n_failed} failed in {m.n_batches} batch(es) "
                f"(fill {m.fill_ratio * 100.0:.0f}%), "
                f"e2e p95 {m.e2e_latency.p95 * 1e3:.2f} ms")
        if self.stages:
            ranked = sorted(self.stages.items(),
                            key=lambda item: item[1].p95, reverse=True)
            lines.append("  stage p95: " + ", ".join(
                f"{name} {summary.p95 * 1e3:.2f} ms"
                for name, summary in ranked[:6]))
        return "\n".join(lines)


class _WindowAcc:
    """Mutable accumulator of the currently open window: its counters, one
    :class:`ModelWindowMetrics` slice per batch served, and span samples."""

    __slots__ = WINDOW_COUNTERS + ("models", "stages")

    def __init__(self) -> None:
        for name in WINDOW_COUNTERS:
            setattr(self, name, 0)
        self.models: dict = {}
        self.stages: dict = {}


class MetricsAggregator:
    """Fold the serving event stream into fixed-duration metric windows.

    Two modes share one code path:

    * **live** — pass a ``broker``; the aggregator opens a topic-filtered
      subscription and consumes it on a daemon thread, closing windows as
      the monotonic clock passes their boundary (idle windows close too,
      zeroed);
    * **synchronous** — pass ``broker=None`` and feed events through
      :meth:`ingest` (and :meth:`close_window` to force a boundary), which
      is deterministic for tests and replayed journals.

    Windows are ``window_s`` seconds of *event time*; the ring keeps the
    last ``n_windows`` closed windows for :meth:`report`.  ``max_batch``
    (normally ``ServePolicy.max_batch``) is the fill-ratio denominator.
    Latencies are the per-member samples each ``BatchServed`` carries, so
    the aggregator pairs no trace ids and keeps no per-request state: its
    only state across windows is the in-flight count.
    """

    #: Topics the aggregator consumes — its own ``MetricsWindowClosed``
    #: republications are deliberately not in this set.
    TOPICS = ("RequestSubmitted", "RequestRejected", "BatchServed",
              "WorkerCrashed", "WorkerRespawned", "JobTimedOut",
              "CacheEvicted", "SpanClosed")

    def __init__(self, broker: TopicBroker | None = None,
                 window_s: float = 1.0, n_windows: int = 60,
                 max_batch: int = 0, maxsize: int = 65536,
                 republish: bool = True, t0: float | None = None) -> None:
        self.window_s = max(1e-3, float(window_s))
        self.n_windows = max(1, int(n_windows))
        self.max_batch = int(max_batch)
        self._republish = bool(republish)
        self._broker = broker
        self._lock = lockwatch.monitored_lock("telemetry.metrics")
        #: Requests submitted and not yet served; survives window
        #: boundaries.
        self._in_flight = 0
        self._ring: deque = deque(maxlen=self.n_windows)
        self._index = 0
        self._t0 = None if t0 is None else float(t0)
        self._acc: _WindowAcc | None = None
        self._drops_seen = 0
        self._closed = False
        self._sub = None
        self._stop = threading.Event()
        self._thread = None
        if broker is not None:
            self._sub = broker.subscribe(topics=self.TOPICS, maxsize=maxsize)
            self._thread = threading.Thread(
                target=self._loop, name="metrics-aggregator", daemon=True)
            self._thread.start()

    # ------------------------------------------------------------- properties
    @property
    def n_dropped(self) -> int:
        """Events lost because the aggregator fell behind the publishers."""
        return self._sub.n_dropped if self._sub is not None else 0

    @property
    def n_windows_closed(self) -> int:
        with self._lock:
            return self._index

    # -------------------------------------------------------------- ingestion
    def ingest(self, event) -> list:
        """Fold one event; returns the ``MetricsWindowClosed`` events of any
        windows its timestamp closed (already republished when configured).
        """
        with self._lock:
            windows = self._ingest_locked(event)
        return self._emit(windows)

    def close_window(self) -> list:
        """Force-close the open window (zeroed if idle); returns its event.

        No-op (empty list) before the first event/tick establishes the
        window epoch.
        """
        with self._lock:
            windows = [] if self._t0 is None else [self._close_locked()]
        return self._emit(windows)

    def tick(self, t: float | None = None) -> list:
        """Close every window whose boundary ``t`` (monotonic now when
        ``None``) has passed — how idle windows keep flowing."""
        t = time.monotonic() if t is None else float(t)
        with self._lock:
            windows = self._advance_locked(t)
        return self._emit(windows)

    # --------------------------------------------------------------- reporting
    def report(self, last: int | None = None) -> MetricsReport:
        """Rolling :class:`MetricsReport` over the last ``last`` closed
        windows (all ring windows when ``None``); zeroed when none closed."""
        with self._lock:
            windows = tuple(self._ring)
            queue_depth = self._in_flight
        if last is not None:
            windows = windows[-max(0, int(last)):]
        return MetricsReport.of(windows, window_s=self.window_s,
                                queue_depth=queue_depth,
                                max_batch=self.max_batch)

    # ---------------------------------------------------------------- plumbing
    def _emit(self, windows) -> list:
        events = [w.as_event() for w in windows]
        broker = self._broker
        if events and self._republish and broker is not None:
            broker.publish_many(events)
        return events

    def _open_acc(self) -> _WindowAcc:
        if self._t0 is None:
            self._t0 = time.monotonic()
        if self._acc is None:
            self._acc = _WindowAcc()
        return self._acc

    def _advance_locked(self, t: float) -> list:
        """Close every window whose end lies at or before ``t``."""
        if self._t0 is None:
            self._t0 = t
            return []
        target = int((t - self._t0) // self.window_s)
        if target <= self._index:
            return []
        if target - self._index > self.n_windows:
            # A gap longer than the ring: the middle windows would be both
            # all-zero and immediately evicted, so skip straight to the
            # last ``n_windows`` of it instead of publishing them all.
            self._index = target - self.n_windows
        closed = []
        while self._index < target:
            closed.append(self._close_locked())
        return closed

    def _close_locked(self) -> WindowMetrics:
        acc = self._acc or _WindowAcc()
        if self._t0 is None:
            self._t0 = time.monotonic()
        if self._sub is not None:
            total = self._sub.n_dropped
            acc.n_subscriber_dropped += total - self._drops_seen
            self._drops_seen = total
        t_start = self._t0 + self._index * self.window_s
        per_model = {key: ModelWindowMetrics.merge(slices)
                     for key, slices in acc.models.items()}
        window = WindowMetrics(
            index=self._index, t_start=t_start,
            t_end=t_start + self.window_s,
            **{name: getattr(acc, name) for name in WINDOW_COUNTERS},
            queue_depth=self._in_flight, max_batch=self.max_batch,
            queue_latency=LatencySummary.merge(
                m.queue_latency for m in per_model.values()),
            e2e_latency=LatencySummary.merge(
                m.e2e_latency for m in per_model.values()),
            per_model=per_model,
            stages={stage: LatencySummary.of(samples)
                    for stage, samples in acc.stages.items()})
        self._ring.append(window)
        self._index += 1
        self._acc = None
        return window

    def _ingest_locked(self, event) -> list:
        t = float(event.t)
        closed = self._advance_locked(t)
        acc = self._open_acc()
        acc.n_events += 1
        if t < self._t0 + self._index * self.window_s:
            # Arrived after its window already closed: clamp, and count so
            # dashboards can see reordering pressure.
            acc.n_late += 1
        name = type(event).__name__
        if name == "RequestSubmitted":
            acc.n_submitted += 1
            self._in_flight += 1
        elif name == "RequestRejected":
            acc.n_rejected += 1
        elif name == "BatchServed":
            rows = event.n_rows
            served = rows if event.ok else 0
            acc.n_batches += 1
            acc.n_served += served
            acc.n_failed += rows - served
            matched = min(rows, self._in_flight)
            acc.n_unmatched += rows - matched
            self._in_flight -= matched
            acc.models.setdefault(event.key, []).append(ModelWindowMetrics(
                key=event.key, n_batches=1, n_rows=rows, n_served=served,
                n_failed=rows - served, max_batch=self.max_batch,
                queue_latency=LatencySummary.of(event.queue_s),
                e2e_latency=LatencySummary.of(event.e2e_s)))
        elif name == "SpanClosed":
            # One sample per member trace: a batch stage weighs as much as
            # the per-request spans it stands for.
            acc.stages.setdefault(event.name, []).extend(
                [float(event.duration_s)] * len(event.trace_ids))
        elif name == "WorkerCrashed":
            acc.n_crashes += 1
        elif name == "WorkerRespawned":
            acc.n_respawns += 1
        elif name == "JobTimedOut":
            acc.n_timeouts += 1
        elif name == "CacheEvicted":
            acc.n_evictions += 1
        return closed

    # ----------------------------------------------------------------- thread
    def _loop(self) -> None:
        poll = min(_POLL_S, self.window_s / 2.0)
        while not self._stop.is_set():
            event = self._sub.get(timeout=poll)
            batch = [event] + self._sub.drain() if event is not None else []
            with self._lock:
                windows = []
                for item in batch:
                    windows.extend(self._ingest_locked(item))
                windows.extend(self._advance_locked(time.monotonic()))
            self._emit(windows)

    def close(self) -> list:
        """Stop consuming, fold whatever is still queued, close the open
        window; returns the final ``MetricsWindowClosed`` event(s)."""
        if self._closed:
            return []
        self._closed = True
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
        remainder = []
        if self._sub is not None:
            self._sub.close()
            remainder = self._sub.drain()
        with self._lock:
            windows = []
            for item in remainder:
                windows.extend(self._ingest_locked(item))
            if self._t0 is not None:
                windows.append(self._close_locked())
        return self._emit(windows)

    def __enter__(self) -> "MetricsAggregator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
