"""The serving front-end: submit → coalesce → lane-dispatch → shard → respond.

:class:`ModelServer` accepts individual stimulus requests (model key +
waveform sample array) and returns a future per request.  Requests wait in
per-``(model, n_steps)`` FIFOs (:mod:`repro.serve.batcher`) and are executed
by **per-model dispatch lanes**: each model key is pinned to one lane thread
at its first submit (lanes are created on demand up to
``ServePolicy.n_lanes``; beyond that, keys share the least-loaded lane), and
lanes execute their batches concurrently — each leasing its own subset of
shard-pool workers (:mod:`repro.serve.shards`) — so traffic for one model
never queues behind another model's running batch.  ``n_lanes=1`` reproduces
the original single-lane dispatcher: one batch at a time, globally.

Lanes **pull**: a lane that is free takes the oldest *ready* FIFO among its
keys — one the ``max_batch`` / ``max_wait`` policy has released — up to
``max_batch`` rows at once, so the backlog that piles up behind a busy lane
leaves as one full batch instead of a queue of small ones.  An idle lane
sleeps on its own condition until its earliest coalescing deadline or until
one of its FIFOs fills; no timer thread is involved.

Request validation happens at **submit time**, in the caller's thread: an
oversized, empty, non-finite or unknown-key request is rejected with a
:class:`~repro.exceptions.ServeError` naming the violated limit before it
can touch a batch — one bad request must never poison the lock-step batch it
would have joined.  The registry is asked about a key only until the server
admits it: keys are content hashes, so an admitted key always names the
same model, and the per-request membership check (two ``stat`` calls)
leaves the hot path.  A model removed from the registry after its key was
admitted keeps being served from a warm cache; once no cache holds it, its
batches fail with a named :class:`~repro.exceptions.ServeError`.

Every guarantee the batch runtime gives carries through: the outputs a
future resolves to are bitwise-equal to evaluating the same rows through a
single-process :meth:`CompiledModel.evaluate
<repro.runtime.compiled.CompiledModel.evaluate>` (the batch kernel is
bitwise chunk-invariant, so neither sharding nor lane count changes a bit).
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from ..checks import lockwatch
from ..exceptions import ServeError, ServerClosedError
from ..runtime.registry import ModelRegistry
from ..telemetry.broker import TopicBroker
from ..telemetry.events import (BatchClosed, BatchServed, CacheEvicted,
                                RequestRejected, RequestSubmitted)
from ..telemetry.spans import ROOT_SPAN, Tracer, TracerConfig
from .batcher import MicroBatch, MicroBatcher, ServeRequest
from .cache import ModelCache
from .policy import ServePolicy
from .shards import ShardPool
from .stats import LatencySummary, ModelLaneStats, ServeStats

__all__ = ["ModelServer"]

class _Lane:
    """One dispatch lane: a daemon thread pulling batches for its models."""

    __slots__ = ("index", "keys", "ready", "executing", "thread")

    def __init__(self, server: "ModelServer", index: int) -> None:
        self.index = index
        self.keys: set[str] = set()
        #: Signalled (under the server lock) when one of this lane's FIFOs
        #: fills or gets its first request, on flush, and on shutdown.
        self.ready = lockwatch.monitored_condition("serve.server", server._lock)
        #: True while this lane's thread is inside a batch evaluation
        #: (guarded by the server lock; feeds the fair-share worker split).
        self.executing = False
        self.thread = threading.Thread(
            target=server._lane_run, args=(self,),
            name=f"repro-serve-lane-{index}", daemon=True)


class _ModelStats:
    """Per-model accounting (guarded by the server lock)."""

    __slots__ = ("lane", "n_batches", "n_rows", "n_completed", "n_failed",
                 "queue_latency", "e2e_latency")

    def __init__(self, lane: int) -> None:
        self.lane = lane
        self.n_batches = 0
        self.n_rows = 0
        self.n_completed = 0
        self.n_failed = 0
        #: Lifetime summaries, grown by one bucket merge per batch.
        self.queue_latency = LatencySummary()
        self.e2e_latency = LatencySummary()


class ModelServer:
    """Sharded micro-batching server over a model registry.

    Parameters
    ----------
    registry:
        The :class:`~repro.runtime.registry.ModelRegistry` (or its root
        directory) holding the compiled models to serve.
    policy:
        Batching / lane / sharding / caching configuration.
    fault_injection:
        Test instrumentation forwarded to the shard pool (crash-once keys).
    stall_injection:
        Test instrumentation forwarded to the shard pool (wedge-once keys,
        exercising ``ServePolicy.job_timeout``).
    delay_injection:
        Benchmark instrumentation forwarded to the shard pool (per-job
        worker stall in seconds, modelling remote-shard latency).
    tracing:
        :class:`~repro.telemetry.spans.TracerConfig` for the span tracer
        (default: sample every trace — costs nothing until somebody
        subscribes to the broker).
    """

    def __init__(self, registry: ModelRegistry | str | Path,
                 policy: ServePolicy | None = None,
                 fault_injection=None, stall_injection=None,
                 delay_injection: float = 0.0,
                 broker: TopicBroker | None = None,
                 tracing: TracerConfig | None = None) -> None:
        self.policy = policy or ServePolicy()
        self.policy.validate()
        self.registry = (registry if isinstance(registry, ModelRegistry)
                         else ModelRegistry(registry))
        #: Push-telemetry broker: every lifecycle event of this server (and
        #: its shard pool) is published here.  Falsy while nobody subscribes,
        #: so every instrumentation site below guards with
        #: ``if self.telemetry:`` and publishing stays near-free unobserved.
        self.telemetry = broker if broker is not None else TopicBroker()
        #: Span tracer over the same broker: per-stage latency attribution
        #: keyed by trace id.  Falsy together with the broker (and when
        #: ``tracing.sample_rate`` is 0), so untraced serving pays one
        #: truthiness check per instrumentation site.
        self.tracer = Tracer(self.telemetry, tracing)
        self._trace_ids = itertools.count(1)
        self._cache = ModelCache(self.policy.cache_bytes,
                                 on_evict=self._on_cache_evict)
        self._cache_lock = lockwatch.monitored_lock("serve.cache")
        self._pool: ShardPool | None = None
        if self.policy.n_workers > 0:
            self._pool = ShardPool(
                self.registry.root, self.policy.n_workers,
                cache_bytes=self.policy.cache_bytes,
                max_retries=self.policy.max_retries,
                segment_bytes=self.policy.segment_bytes,
                job_timeout=self.policy.job_timeout,
                fault_injection=fault_injection,
                stall_injection=stall_injection,
                delay_injection=delay_injection,
                broker=self.telemetry)
        self._lock = lockwatch.monitored_lock("serve.server")
        self._batcher = MicroBatcher(self.policy.max_batch,
                                     self.policy.max_wait,
                                     on_close=self._on_batch_closed)
        self._closed = False
        self._t_started = time.monotonic()
        # Dispatch lanes (guarded by _lock): created on demand as model keys
        # are first submitted, up to policy.n_lanes; then keys share lanes.
        self._lanes: list[_Lane] = []
        self._lane_by_key: dict[str, _Lane] = {}
        # Counters (guarded by _lock); the batch and outcome counts live in
        # the per-model stats only, and stats() sums them.
        self._n_submitted = 0
        #: Requests accepted but not yet resolved/failed — the real backlog
        #: the ``max_queue_depth`` limit guards (requests waiting in the
        #: batcher AND batches executing in a lane).
        self._n_inflight = 0
        self._model_stats: dict[str, _ModelStats] = {}

    def describe(self) -> str:
        return (f"ModelServer({self.registry.root}, "
                f"n_lanes={self.policy.n_lanes}, "
                f"n_workers={self.policy.n_workers})")

    # -------------------------------------------------------------- telemetry
    def _on_batch_closed(self, batch: MicroBatch) -> None:
        """Batcher ``on_close`` hook: a lane took ``batch`` (runs under the
        server lock)."""
        if self.telemetry:
            # repro: allow[REP102] takes happen under the server lock so BatchClosed follows its RequestSubmitted
            self.telemetry.publish(BatchClosed(
                key=batch.key, n_steps=batch.n_steps, n_rows=len(batch),
                trace_ids=batch.trace_ids))

    def _on_cache_evict(self, key: str, nbytes: int) -> None:
        """Dispatcher-cache eviction hook (runs under the cache lock)."""
        if self.telemetry:
            # repro: allow[REP102] eviction order is the contract; publish is non-blocking drop-oldest
            self.telemetry.publish(CacheEvicted(key=key, nbytes=nbytes))

    def _reject(self, key: str, reason: str, exc: ServeError) -> ServeError:
        """Publish a ``RequestRejected`` event and hand back ``exc`` to raise."""
        if self.telemetry:
            self.telemetry.publish(RequestRejected(key=key, reason=reason))
        return exc

    # ------------------------------------------------------------------ lanes
    def _lane_for(self, key: str) -> _Lane:
        """The lane serving ``key`` (created/assigned on first sight).

        Caller holds ``_lock``.
        """
        lane = self._lane_by_key.get(key)
        if lane is None:
            if len(self._lanes) < self.policy.n_lanes:
                lane = _Lane(self, len(self._lanes))
                self._lanes.append(lane)
                lane.thread.start()
            else:
                lane = min(self._lanes, key=lambda lane: len(lane.keys))
            lane.keys.add(key)
            self._lane_by_key[key] = lane
            self._model_stats[key] = _ModelStats(lane.index)
        return lane

    def _lane_run(self, lane: _Lane) -> None:
        while True:
            with self._lock:
                lane.executing = False
                while True:
                    now = time.monotonic()
                    batch = self._batcher.take(now, lane.keys)
                    if batch is not None:
                        break
                    # close() released every pending request, so nothing
                    # ready means nothing left for this lane.
                    if self._closed:
                        return
                    deadline = self._batcher.next_deadline(lane.keys)
                    lane.ready.wait(None if deadline is None
                                    else deadline - now)
                lane.executing = True
            self._execute(batch)

    def _worker_share(self) -> int:
        """Fair share of shard workers for one dispatching lane.

        The pool's lease is first-come-first-served, so without a cap the
        first lane to dispatch would grab every free worker and serialise
        the other lanes behind its batch.  The share divides the pool by the
        number of lanes that currently have work — executing, or holding
        requests in the batcher.
        """
        assert self._pool is not None
        with self._lock:
            busy = {lane.index for lane in self._lanes if lane.executing}
            busy.update(self._lane_by_key[key].index
                        for key in self._batcher.keys())
        return max(1, self._pool.n_workers // max(1, len(busy)))

    # ------------------------------------------------------------- submission
    def submit(self, key: str, samples) -> Future:
        """Enqueue one stimulus for model ``key``; returns its future.

        ``samples`` is the 1-D waveform sampled on the model's ``dt`` grid.
        The future resolves to the model's 1-D output row (or raises
        :class:`~repro.exceptions.ServeError` on failure).

        A key the server has not admitted yet must be in the registry, or
        the submit is rejected (``RequestRejected(reason="unknown_key")``,
        on every such submit).  An admitted key is not looked up again: its
        model is served from the caches while they hold it, even after
        ``registry.remove(key)``, and a batch that must load it from the
        registry after that fails with a named ``ServeError``.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise self._reject(key, "bad_shape", ServeError(
                f"request samples must be a non-empty 1-D array; got shape "
                f"{samples.shape}"))
        if samples.size > self.policy.max_request_samples:
            raise self._reject(key, "oversized", ServeError(
                f"request of {samples.size} samples exceeds the per-request "
                f"limit ServePolicy.max_request_samples="
                f"{self.policy.max_request_samples}"))
        if not np.isfinite(samples).all():
            bad = int(np.flatnonzero(~np.isfinite(samples))[0])
            raise self._reject(key, "non_finite", ServeError(
                f"request contains a non-finite sample at step {bad}; "
                "rejected before batching (it would poison its lock-step "
                "batch)"))
        # Unlocked read of a dict only ever grown under the lock: a key
        # admitted concurrently just costs one more registry lookup.
        if key not in self._lane_by_key and key not in self.registry:
            raise self._reject(key, "unknown_key", ServeError(
                f"unknown model key {key[:12]!r}... — not in the model "
                f"registry at {self.registry.root}"))
        request = ServeRequest(key=key, samples=samples)
        with self._lock:
            if self._closed:
                raise self._reject(key, "closed", ServerClosedError(
                    f"{self.describe()} is closed; a submission after "
                    "close() would enqueue a future that can never resolve"))
            if self._n_inflight >= self.policy.max_queue_depth:
                raise self._reject(key, "queue_full", ServeError(
                    f"scheduler queue is full: ServePolicy.max_queue_depth="
                    f"{self.policy.max_queue_depth} requests already pending"))
            self._n_submitted += 1
            self._n_inflight += 1
            now = time.monotonic()
            request.trace_id = next(self._trace_ids)
            # Stamped on the future so transport layers (the gateway) can
            # attribute their own decode/encode/write spans to this trace
            # without a side channel.
            request.future.trace_id = request.trace_id
            # Published before the batcher sees the request, under the same
            # lock lanes take batches under: a request's RequestSubmitted
            # always precedes the BatchClosed naming its trace id.
            if self.telemetry:
                # repro: allow[REP102] publish is non-blocking (drop-oldest) and the ordering contract needs the lock
                self.telemetry.publish(RequestSubmitted(
                    key=key, n_steps=request.n_steps,
                    trace_id=request.trace_id))
            lane = self._lane_for(key)
            if self._batcher.add(request, now):
                lane.ready.notify()
        return request.future

    def serve(self, key: str, batch) -> np.ndarray:
        """Blocking convenience: submit every row of ``(rows, n_steps)`` and
        gather the outputs in order."""
        batch = np.asarray(batch, dtype=float)
        if batch.ndim == 1:
            batch = batch[None, :]
        futures = [self.submit(key, row) for row in batch]
        return np.vstack([future.result() for future in futures])

    # -------------------------------------------------------------- execution
    def _execute(self, batch: MicroBatch) -> None:
        t_started = time.monotonic()
        # The batch's span collector: sampling is decided once per member,
        # and each batch or job stage becomes one span for all of them.
        spans = self.tracer.batch(batch.trace_ids) if self.tracer else None
        try:
            if self._pool is not None:
                # The pool stages each request's samples straight into its
                # workers' segments and hands back one owned row per
                # request: no stacked copy of the batch on this side.
                share = self._worker_share()
                t_dispatched = time.monotonic()
                outputs = self._pool.evaluate(batch.key, batch.rows,
                                              max_workers=share,
                                              trace_ids=batch.trace_ids,
                                              spans=spans)
            else:
                inputs = np.vstack(batch.rows)
                t_dispatched = time.monotonic()
                # The dispatcher cache is shared across lanes: loads are
                # serialised under a lock, evaluation (a pure function of
                # the model arrays) runs outside it.
                with self._cache_lock:
                    model = self._cache.get_or_load(
                        batch.key, lambda: self.registry.load(batch.key))
                t_eval = time.monotonic()
                outputs = [row.copy() for row in model.evaluate(inputs)]
                if spans is not None:
                    spans.add("serve_evaluate", t_eval,
                              time.monotonic() - t_eval,
                              parent="serve_execute")
            failure = None
        except Exception as exc:   # noqa: BLE001 - must resolve the futures
            t_dispatched = t_started
            failure = (exc if isinstance(exc, ServeError)
                       else ServeError(f"batch evaluation failed: {exc!r}"))
        now = time.monotonic()
        # The batch's summaries are built outside the lock; under it the
        # accounting is counters plus one bucket merge per summary.
        t_submit = np.array([request.t_submit for request in batch.requests])
        t_closed = np.array([request.t_closed for request in batch.requests])
        queue_s = t_closed - t_submit
        e2e_s = now - t_submit
        queue = LatencySummary.of(queue_s)
        e2e = LatencySummary.of(e2e_s)
        # Account first, then wake the callers: a caller returning from
        # future.result() must find its own request already counted when it
        # immediately asks for stats().
        with self._lock:
            model = self._model_stats[batch.key]
            model.n_batches += 1
            model.n_rows += len(batch)
            model.queue_latency = LatencySummary.merge(
                (model.queue_latency, queue))
            model.e2e_latency = LatencySummary.merge((model.e2e_latency, e2e))
            self._n_inflight -= len(batch)
            if failure is None:
                model.n_completed += len(batch)
            else:
                model.n_failed += len(batch)
        # Span emission sits outside the lock (REP102/lockwatch clean) and
        # before the futures resolve, mirroring the BatchServed contract: a
        # caller returning from future.result() finds its trace complete.
        if spans is not None:
            spans.add("serve_dispatch", t_started, t_dispatched - t_started,
                      parent="serve_execute")
            spans.add("serve_execute", t_started, now - t_started)
            for request in batch.requests:
                member = (request.trace_id,)
                spans.add("serve_queue", request.t_submit,
                          request.t_closed - request.t_submit,
                          trace_ids=member)
                spans.add("serve_coalesce", request.t_closed,
                          t_started - request.t_closed, trace_ids=member)
                spans.add(ROOT_SPAN, request.t_submit,
                          now - request.t_submit, parent="",
                          trace_ids=member)
            spans.flush()
        # Published before the futures resolve, mirroring the accounting
        # order: a caller returning from future.result() finds its request's
        # full submit → closed → served chain already on the wire.
        if self.telemetry:
            self.telemetry.publish(BatchServed(
                key=batch.key, n_steps=batch.n_steps, n_rows=len(batch),
                ok=failure is None, duration_s=now - t_started,
                trace_ids=batch.trace_ids, queue_s=tuple(queue_s.tolist()),
                e2e_s=tuple(e2e_s.tolist())))
        if failure is None:
            batch.resolve(outputs)
        else:
            batch.fail(failure)

    # ----------------------------------------------------------------- control
    def flush(self) -> None:
        """Release every pending request to the lanes now (no waiting)."""
        with self._lock:
            self._batcher.flush(time.monotonic())
            for lane in self._lanes:
                lane.ready.notify()

    def close(self, timeout: float | None = None) -> None:
        """Drain pending work, stop the lanes and the shard pool.

        Every already-submitted future is resolved (or failed) before the
        lanes exit; submissions after ``close`` raise a
        :class:`~repro.exceptions.ServeError` naming this server.
        """
        with self._lock:
            if not self._closed:
                self._closed = True
                self._batcher.flush(time.monotonic())
            # Wake every lane: released requests are still taken and served
            # (lanes only exit once nothing is pending for them).
            for lane in self._lanes:
                lane.ready.notify()
        for lane in self._lanes:
            lane.thread.join(timeout)
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- diagnostics
    def stats(self) -> ServeStats:
        """Snapshot of counters and latency percentiles.

        Everything is a lifetime value: counters, the mean batch size and
        the latency summaries, whose percentiles are accurate to within
        :data:`~repro.serve.stats.ALPHA` (1%) relative.  The server-wide
        batch and outcome counts are the sums of the per-model ones, and
        the server-wide summaries their exact merge.  Safe to call at any
        time, including before the first batch completes — empty summaries
        report zeros.
        """
        t_snapshot = time.monotonic()
        with self._lock:
            submitted, pending = self._n_submitted, self._n_inflight
            per_model = {
                key: ModelLaneStats(
                    key=key, lane=model.lane, n_batches=model.n_batches,
                    n_rows=model.n_rows, n_completed=model.n_completed,
                    n_failed=model.n_failed,
                    n_coalescing=self._batcher.pending(key),
                    queue_latency=model.queue_latency,
                    e2e_latency=model.e2e_latency,
                    max_batch=self.policy.max_batch)
                for key, model in self._model_stats.items()}
            n_lanes = max(1, len(self._lanes))
        models = per_model.values()
        n_batches = sum(model.n_batches for model in models)
        n_rows = sum(model.n_rows for model in models)
        return ServeStats(
            n_submitted=submitted,
            n_completed=sum(model.n_completed for model in models),
            n_failed=sum(model.n_failed for model in models),
            n_pending=pending, n_batches=n_batches,
            mean_batch_size=(n_rows / n_batches) if n_batches else 0.0,
            queue_latency=LatencySummary.merge(
                model.queue_latency for model in models),
            e2e_latency=LatencySummary.merge(
                model.e2e_latency for model in models),
            cache=self._cache.stats.as_dict(),
            pool=self._pool.stats() if self._pool is not None else {},
            per_model=per_model,
            n_lanes=n_lanes,
            t_snapshot=t_snapshot,
            uptime_s=t_snapshot - self._t_started,
            max_batch=self.policy.max_batch,
        )
