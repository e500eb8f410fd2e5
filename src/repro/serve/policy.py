"""Serving policy: the knobs that shape batching, sharding and caching.

One frozen :class:`ServePolicy` value parameterises the whole serving stack —
the micro-batching scheduler (:mod:`repro.serve.batcher`), the shard pool
(:mod:`repro.serve.shards`) and the model cache (:mod:`repro.serve.cache`) —
so a deployment is described by a single reviewable object instead of knobs
scattered across constructors.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ServeError

__all__ = ["ServePolicy"]


@dataclass(frozen=True)
class ServePolicy:
    """Configuration of a :class:`~repro.serve.server.ModelServer`.

    The two batching knobs trade latency for throughput exactly as in any
    micro-batching server: a request is released to its lane as soon as its
    coalescing group reaches ``max_batch`` rows, or when the oldest request
    in the group has waited ``max_wait`` seconds, whichever comes first.  A
    busy lane does not hold the policy up: when it frees, it takes up to
    ``max_batch`` of the requests waiting for it in one batch.
    """

    #: Most rows per lock-step batch.  A group that reaches it is released
    #: at once; a lane that frees takes at most this many waiting rows.
    max_batch: int = 256
    #: Longest time (seconds) a request may wait for co-batching before its
    #: partial group is released anyway (its lane takes it as soon as the
    #: lane is free).
    max_wait: float = 2e-3
    #: Per-request sample limit.  Oversized requests are rejected at submit
    #: time with a :class:`~repro.exceptions.ServeError` naming this limit —
    #: one runaway client must not be able to wedge a whole batch.
    max_request_samples: int = 1 << 20
    #: Upper bound on in-flight requests (accepted but not yet answered,
    #: whether still waiting for a lane to take them or executing);
    #: submissions beyond it are rejected, not silently queued.
    max_queue_depth: int = 100_000
    #: Worker processes in the shard pool.  ``0`` evaluates batches inline in
    #: the dispatching lane thread — the single-process reference
    #: configuration.
    n_workers: int = 0
    #: Dispatch lanes: each model key is pinned to one lane thread, and lanes
    #: execute their batches concurrently (each leasing its own subset of
    #: shard workers), so multi-model traffic overlaps instead of queueing
    #: behind whichever model's batch happens to be running.  ``1``
    #: reproduces the original single-lane dispatcher: every batch, for every
    #: model, executes strictly one at a time.
    n_lanes: int = 4
    #: Admission control of the TCP gateway (:mod:`repro.gateway`):
    #: connections beyond this are refused with a named error frame instead
    #: of being accepted and buffered without bound.
    max_connections: int = 1024
    #: Per-connection slot budget of the gateway.  An admitted request holds
    #: a slot until its reply is written, and every other queued frame
    #: (error, stats or event) holds one until it is written.  A connection
    #: at its cap stops being read until a written frame frees a slot —
    #: backpressure through the TCP window, not unbounded server-side
    #: buffering — so the cap also bounds every queued frame of the
    #: connection's outgoing queue.
    max_inflight_per_conn: int = 256
    #: Largest frame (length prefix value, bytes) the gateway will read or a
    #: client will accept.  An oversized frame fails its connection with a
    #: named error before its payload is buffered.
    max_frame_bytes: int = 64 << 20
    #: Shard-job retries after a worker crash before the affected requests
    #: fail (cleanly, with a ServeError — never a hang).
    max_retries: int = 2
    #: Byte size of each shard worker's shared-memory dataplane segment,
    #: the only shard transport.  Batch rows travel to the worker (and
    #: results travel back) through this segment — the pipe carries only
    #: ``(job_id, key, shape)`` descriptors, so dispatch → evaluate →
    #: reassembly never pickles a float64 row.  A batch too large for one
    #: job per worker is cut into segment-sized jobs that run in waves.
    #: Must be at least ``16 * max_request_samples``, so one admitted row
    #: fits in and out.
    segment_bytes: int = 64 << 20
    #: Per shard-job deadline (seconds).  A worker that is *alive but wedged*
    #: (stuck in evaluate, deadlocked allocator) can otherwise hang its lane
    #: forever — the liveness check only catches processes that died.  When
    #: the deadline passes, the job is treated exactly like a crash: the
    #: worker is respawned and the shard's retry budget is charged.  ``0``
    #: (the default) disables the deadline.
    job_timeout: float = 0.0
    #: Byte budget of each warm-model LRU cache (the dispatcher holds one;
    #: every shard worker holds its own).
    cache_bytes: int = 256 << 20
    #: Fastest cadence (seconds) at which the gateway emits ``STATS`` frames
    #: to a subscribed connection; a client asking for a shorter interval is
    #: clamped up to this, so one eager dashboard cannot turn stats polling
    #: into load.
    stats_interval: float = 1.0
    #: Queue bound of each gateway ``EVENTS_SUBSCRIBE`` subscription: events
    #: beyond it drop oldest-first (counted on the subscription) instead of
    #: growing server-side buffers for a slow telemetry consumer.
    telemetry_maxsize: int = 4096

    def validate(self) -> None:
        if self.max_batch < 1:
            raise ServeError("ServePolicy.max_batch must be at least 1")
        if self.max_wait < 0.0:
            raise ServeError("ServePolicy.max_wait must be non-negative")
        if self.max_request_samples < 1:
            raise ServeError("ServePolicy.max_request_samples must be at least 1")
        if self.max_queue_depth < 1:
            raise ServeError("ServePolicy.max_queue_depth must be at least 1")
        if self.n_workers < 0:
            raise ServeError("ServePolicy.n_workers must be non-negative")
        if self.n_lanes < 1:
            raise ServeError("ServePolicy.n_lanes must be at least 1")
        if self.max_connections < 1:
            raise ServeError("ServePolicy.max_connections must be at least 1")
        if self.max_inflight_per_conn < 1:
            raise ServeError(
                "ServePolicy.max_inflight_per_conn must be at least 1")
        if self.max_frame_bytes < 64:
            raise ServeError(
                "ServePolicy.max_frame_bytes must be at least 64 (one frame "
                "header plus a sample)")
        if self.max_retries < 0:
            raise ServeError("ServePolicy.max_retries must be non-negative")
        if self.segment_bytes < 16 * self.max_request_samples:
            raise ServeError(
                f"ServePolicy.segment_bytes={self.segment_bytes} must hold "
                "one max_request_samples row in and out (16 * "
                f"{self.max_request_samples} bytes)")
        if self.job_timeout < 0.0:
            raise ServeError(
                "ServePolicy.job_timeout must be non-negative (0 disables "
                "the per-job deadline)")
        if self.cache_bytes < 0:
            raise ServeError("ServePolicy.cache_bytes must be non-negative")
        if self.stats_interval <= 0.0:
            raise ServeError("ServePolicy.stats_interval must be positive")
        if self.telemetry_maxsize < 1:
            raise ServeError(
                "ServePolicy.telemetry_maxsize must be at least 1")
