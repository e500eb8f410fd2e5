"""Latency / throughput accounting of a running model server and gateway.

The server records two timestamps per request on its monotonic clock —
submission and release by the batching policy — and takes the completion
time when it resolves the batch.  Their differences separate the two costs
a micro-batching deployment tunes against each other:

* **queue (coalescing) latency** ``t_closed - t_submit``: the wait the
  batching policy *added* to the request; bounded by ``max_wait`` (its
  group's deadline) and ~0 for requests that completed a full group.  The
  wait for a busy lane to take the request is not part of it (the tracer
  reports it as the ``serve_coalesce`` span);
* **end-to-end latency** ``t_done - t_submit``: what the caller observed,
  including that wait, evaluation and any crash-retry stalls.

:meth:`ModelServer.stats <repro.serve.server.ModelServer.stats>` snapshots
these into a :class:`ServeStats` value with lifetime latency summaries — a
per-model breakdown attributed to the dispatch lane serving each model, and
its exact merge server-wide.  The server computes both latencies once per
request, when it resolves the batch, and publishes the same samples on the
batch's ``BatchServed`` event: there is one definition of each, and the
metrics windows (:mod:`repro.telemetry.metrics`) fold exactly these
samples, so windows merged over a run equal ``ServeStats`` bucket for
bucket.  :class:`LatencySummary` is the one latency primitive of the
serving stack: the server, the metrics windows and their roll-ups all
summarise and merge with it.
The TCP gateway (:mod:`repro.gateway`) keeps its connection/frame
accounting in a :class:`GatewayCounters`.

Every summary here is **empty-window safe**: a freshly started server (or a
model that has not completed a batch yet) reports zeroed percentiles, never
NaN and never an indexing error, so dashboards can poll ``stats()`` from the
moment the server starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ALPHA", "GatewayCounters", "LatencySummary", "ModelLaneStats",
           "ServeStats"]


#: Relative accuracy of every latency percentile: a reported value lies
#: within ``ALPHA`` (1%) of the sample of the requested rank.
ALPHA = 0.01

#: Bucket ``i`` holds the samples in ``(GAMMA**(i - 1), GAMMA**i]``.
_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_LOG_GAMMA = math.log(_GAMMA)


@dataclass(frozen=True)
class LatencySummary:
    """Mergeable summary of one latency population (seconds).

    A fixed log-bucket quantile sketch (DDSketch, Masson et al., VLDB 2019,
    arXiv:1908.10693): a positive sample ``x`` counts into bucket
    ``ceil(log(x) / log(GAMMA))``, whose representative
    ``2 GAMMA**i / (GAMMA + 1)`` lies within :data:`ALPHA` of every sample
    in it; zero (and any non-positive) samples count apart, as zeros.
    ``count``, ``total`` and the exact ``min``/``max`` sit beside the
    bucket counts, so :meth:`merge` is exact: the merge of the summaries of
    several sample sets *is* the summary of their concatenation, which
    makes window roll-ups true quantiles.  Memory is bounded by the
    dynamic range of the samples, not their number.

    Non-finite samples are dropped, and an empty (or all-non-finite)
    population summarises to zeros — querying a server before its first
    batch completes must never trip on an empty percentile.
    """

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    #: Index of the first bucket in ``buckets``.
    offset: int = 0
    #: Counts of the consecutive buckets ``offset, offset + 1, ...`` as raw
    #: ``intp`` bytes (immutable, so a summary stays a hashable value); the
    #: samples they leave out of ``count`` are zeros.
    buckets: bytes = b""

    mean = property(lambda self: self.total / max(self.count, 1))
    p50 = property(lambda self: self.percentile(50.0))
    p90 = property(lambda self: self.percentile(90.0))
    p95 = property(lambda self: self.percentile(95.0))
    p99 = property(lambda self: self.percentile(99.0))

    @classmethod
    def of(cls, samples) -> "LatencySummary":
        values = np.asarray(samples, dtype=float).ravel()
        values = values[np.isfinite(values)]
        if not values.size:
            return cls()
        index = np.ceil(np.log(values[values > 0.0]) / _LOG_GAMMA).astype(int)
        offset = int(index.min()) if index.size else 0
        return cls(count=int(values.size), total=float(values.sum()),
                   min=float(values.min()), max=float(values.max()),
                   offset=offset,
                   buckets=np.bincount(index - offset).tobytes())

    @classmethod
    def merge(cls, summaries) -> "LatencySummary":
        """The summary of the concatenated samples of ``summaries``.

        Counts, totals and bucket counts add; ``min``/``max`` stay exact.
        Empty summaries contribute nothing; merging none (or only empties)
        is the zeroed summary, keeping the empty-window-safe contract.
        """
        live = [s for s in summaries if s.count]
        if len(live) < 2:
            return live[0] if live else cls()
        binned = [(s.offset, np.frombuffer(s.buckets, dtype=np.intp))
                  for s in live if s.buckets]
        offset = min((start for start, _ in binned), default=0)
        end = max((start + c.size for start, c in binned), default=0)
        counts = np.zeros(end - offset, dtype=np.intp)
        for start, c in binned:
            counts[start - offset:start - offset + c.size] += c
        return cls(count=sum(s.count for s in live),
                   total=sum(s.total for s in live),
                   min=min(s.min for s in live), max=max(s.max for s in live),
                   offset=offset, buckets=counts.tobytes())

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``0 <= q <= 100``), within ``ALPHA``.

        Applies ``np.percentile``'s linear interpolation to the bucketed
        ranks; rank 0 and rank ``count - 1`` answer the exact ``min`` and
        ``max``.  NaN-safe by construction: an empty summary answers 0.0
        for every ``q`` instead of propagating NaN into dashboards or gates.
        """
        if not self.count:
            return 0.0
        rank = (self.count - 1) * float(q) / 100.0
        below = math.floor(rank)
        low = self._value_at(below)
        if rank == below:
            return low
        return low + (rank - below) * (self._value_at(below + 1) - low)

    def _value_at(self, rank: int) -> float:
        """The sample of ascending ``rank``, to within ``ALPHA``."""
        if rank <= 0:
            return self.min
        if rank >= self.count - 1:
            return self.max
        cumulative = np.cumsum(np.frombuffer(self.buckets, dtype=np.intp))
        # The zeros rank first, then the buckets in ascending order.
        rank -= self.count - int(cumulative[-1] if cumulative.size else 0)
        bucket = self.offset + int(np.searchsorted(cumulative, rank, "right"))
        value = 2.0 * _GAMMA ** bucket / (_GAMMA + 1.0) if rank >= 0 else 0.0
        return min(max(value, self.min), self.max)

    def as_dict(self) -> dict:
        return {"count": self.count, "mean_s": self.mean, "min_s": self.min,
                "p50_s": self.p50, "p90_s": self.p90, "p95_s": self.p95,
                "p99_s": self.p99, "max_s": self.max}


@dataclass(frozen=True)
class ModelLaneStats:
    """One model's share of the traffic, attributed to its dispatch lane."""

    key: str
    lane: int
    n_batches: int
    n_rows: int
    n_completed: int
    n_failed: int
    #: Requests submitted but not yet taken by the model's lane — still
    #: coalescing, or released and waiting for the lane to free up.
    n_coalescing: int
    queue_latency: LatencySummary
    e2e_latency: LatencySummary
    #: ``ServePolicy.max_batch`` at snapshot time — the denominator of the
    #: batch-fill ratio (0 when unknown, e.g. hand-built test values).
    max_batch: int = 0

    @property
    def mean_batch_size(self) -> float:
        return (self.n_rows / self.n_batches) if self.n_batches else 0.0

    @property
    def fill_ratio(self) -> float:
        """Mean batch occupancy vs ``max_batch`` (0.0 when unknown).

        The metric that tells whether a model's traffic saturates its
        batches (ratio near 1: throughput-bound, raise ``max_batch``) or
        mostly flushes on the deadline (low ratio: latency-bound, the
        ``max_wait`` knob is doing the closing).
        """
        if not self.max_batch or not self.n_batches:
            return 0.0
        return self.mean_batch_size / self.max_batch

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "lane": self.lane,
            "n_batches": self.n_batches,
            "n_rows": self.n_rows,
            "n_completed": self.n_completed,
            "n_failed": self.n_failed,
            "n_coalescing": self.n_coalescing,
            "mean_batch_size": self.mean_batch_size,
            "max_batch": self.max_batch,
            "fill_ratio": self.fill_ratio,
            "queue_latency": self.queue_latency.as_dict(),
            "e2e_latency": self.e2e_latency.as_dict(),
        }

    def describe(self) -> str:
        return (f"model {self.key[:12]}... [lane {self.lane}]: "
                f"{self.n_completed} served / {self.n_failed} failed in "
                f"{self.n_batches} batch(es) of {self.mean_batch_size:.1f} "
                f"rows avg (fill {self.fill_ratio * 100.0:.0f}%); "
                f"queue p50 {self.queue_latency.p50 * 1e3:.2f} ms, "
                f"e2e p50 {self.e2e_latency.p50 * 1e3:.2f} ms")


@dataclass(frozen=True)
class ServeStats:
    """Point-in-time snapshot of a server's counters and latencies."""

    n_submitted: int
    n_completed: int
    n_failed: int
    n_pending: int
    n_batches: int
    mean_batch_size: float
    queue_latency: LatencySummary
    e2e_latency: LatencySummary
    cache: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)
    #: Per-model breakdown keyed by model key (a model appears at its
    #: first accepted submit, which pins it to a lane).
    per_model: dict = field(default_factory=dict)
    n_lanes: int = 1
    #: When this snapshot was taken, on the server's monotonic clock — the
    #: same time base as the telemetry event timestamps, so consecutive
    #: snapshots difference into rates (req/s, batches/s) without wall-clock
    #: jumps.
    t_snapshot: float = 0.0
    #: Seconds the server had been up when the snapshot was taken.
    uptime_s: float = 0.0
    #: ``ServePolicy.max_batch`` of the serving policy (0 when unknown).
    max_batch: int = 0

    @property
    def fill_ratio(self) -> float:
        """Server-wide mean batch occupancy vs ``max_batch`` (0 if unknown)."""
        if not self.max_batch or not self.n_batches:
            return 0.0
        return self.mean_batch_size / self.max_batch

    def as_dict(self) -> dict:
        return {
            "t_snapshot": self.t_snapshot,
            "uptime_s": self.uptime_s,
            "n_submitted": self.n_submitted,
            "n_completed": self.n_completed,
            "n_failed": self.n_failed,
            "n_pending": self.n_pending,
            "n_batches": self.n_batches,
            "mean_batch_size": self.mean_batch_size,
            "max_batch": self.max_batch,
            "fill_ratio": self.fill_ratio,
            "n_lanes": self.n_lanes,
            "queue_latency": self.queue_latency.as_dict(),
            "e2e_latency": self.e2e_latency.as_dict(),
            "cache": dict(self.cache),
            "pool": dict(self.pool),
            "per_model": {key: stats.as_dict()
                          for key, stats in self.per_model.items()},
        }

    def describe(self, per_model: bool = True) -> str:
        lines = [
            f"up {self.uptime_s:.1f} s: "
            f"served {self.n_completed}/{self.n_submitted} request(s) "
            f"({self.n_failed} failed, {self.n_pending} pending) in "
            f"{self.n_batches} batch(es) of {self.mean_batch_size:.1f} "
            f"rows avg (fill {self.fill_ratio * 100.0:.0f}%) across "
            f"{self.n_lanes} lane(s); queue p50 "
            f"{self.queue_latency.p50 * 1e3:.2f} ms, e2e p50 "
            f"{self.e2e_latency.p50 * 1e3:.2f} ms"]
        if per_model:
            lines.extend("  " + stats.describe()
                         for stats in self.per_model.values())
        return "\n".join(lines)


class GatewayCounters:
    """Mutable connection/frame counters of one gateway front-end.

    Mutated only from the gateway's event-loop thread; snapshots via
    :meth:`as_dict` are consistent enough for monitoring (single attribute
    reads are atomic under the GIL).
    """

    __slots__ = ("n_connections", "n_open_connections",
                 "n_rejected_connections", "n_frames_in", "n_frames_out",
                 "n_requests", "n_rejected_requests", "n_protocol_errors",
                 "n_chunk_stream_errors")

    def __init__(self) -> None:
        #: Connections ever accepted (the admission-rejected ones excluded).
        self.n_connections = 0
        self.n_open_connections = 0
        #: Connections refused by the ``max_connections`` admission limit.
        self.n_rejected_connections = 0
        self.n_frames_in = 0
        self.n_frames_out = 0
        #: Request frames admitted into the model server.
        self.n_requests = 0
        #: Request frames the model server rejected at submit time.
        self.n_rejected_requests = 0
        #: Malformed frames (bad magic/version/dtype, truncated, oversized).
        self.n_protocol_errors = 0
        #: Chunked-request streams that failed reassembly (inconsistent
        #: series, out-of-budget totals, or abandoned mid-stream at
        #: disconnect).  Also counted in ``n_protocol_errors`` — this
        #: breakdown tells truncated streams apart from garbled frames.
        self.n_chunk_stream_errors = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def describe(self) -> str:
        return (f"{self.n_open_connections} open connection(s) "
                f"({self.n_connections} accepted, "
                f"{self.n_rejected_connections} refused); "
                f"{self.n_frames_in} frame(s) in / {self.n_frames_out} out, "
                f"{self.n_requests} request(s) admitted, "
                f"{self.n_rejected_requests} rejected, "
                f"{self.n_protocol_errors} protocol error(s) "
                f"({self.n_chunk_stream_errors} chunk-stream)")
