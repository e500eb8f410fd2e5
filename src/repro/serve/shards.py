"""Shard pool: partition lock-step batches across warm worker processes.

Each worker process holds its own byte-budget LRU cache of compiled models,
loaded once from the registry (integrity-checked via
:class:`~repro.runtime.registry.ModelHandle`) and kept warm across batches —
only the stimulus rows and result rows cross the process boundary per batch.

**Zero-copy dataplane**, the only transport: every worker owns a
``multiprocessing.shared_memory`` segment created by the pool.  Dispatch
writes the job's rows straight into the worker's segment and the pipe
carries only a ``(job_id, key, shape)`` descriptor; the worker evaluates *in
place* — the compiled kernel writes its outputs directly into the segment
(``evaluate_batch(out=...)``) — and replies with its stage timings, so
neither request rows nor result rows are ever pickled.  Every job uses the
same region (rows at offset 0, results right after): a worker holds at most
one job at a time, a respawned worker gets a *fresh* segment (so a retried
job can never alias a dead job's bytes), and reusing the region keeps its
pages warm — the kernel faults them in once, not once per batch.

Sharding is the deterministic contiguous partition of
:func:`repro.runtime.batch.shard_slices` into one job per leased worker, or
into more, segment-sized jobs when the batch would not fit: those run in
*waves* of one job per worker.  Because the batched kernel is element-wise
along the batch axis and bitwise chunk-invariant, reassembling the job
results into the original row order reproduces the single-process
``evaluate`` bit for bit — for *any* number of jobs, which is what lets
concurrent callers lease different worker subsets.

Concurrency model: workers are **leased per batch**.  An ``evaluate()`` call
takes every currently-free worker (at least one — it blocks while none are
free), shards its batch across exactly that lease, and returns the workers
on completion.  A lone caller therefore still gets the whole pool, while
concurrent callers — the per-model dispatch lanes of
:class:`~repro.serve.server.ModelServer` — split the pool between them and
execute their batches *simultaneously* instead of queueing on a global lock.

Failure model: a worker that dies mid-batch (OOM-killed, segfaulted,
``kill -9``) is detected through its broken pipe / liveness check, respawned
with a cold cache (and a fresh segment — the dead worker's is reclaimed),
and the affected job is retried in a later wave, up to ``max_retries``
times.  A worker that is *alive but wedged* is caught by the optional
per-job deadline (``job_timeout``, counted from the job's dispatch, so the
wedged jobs of one wave time out together): a job that misses it is
treated exactly like a crash.  Requests beyond the retry budget fail with a
:class:`~repro.exceptions.ServeError`; they never hang.  Worker-side Python
exceptions (corrupt registry entry, bad key) are not crashes: they propagate
back once, immediately, without a retry.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..checks import lockwatch
from ..exceptions import ServeError
from ..runtime.batch import evaluate_batch, shard_slices
from ..runtime.registry import ModelHandle
from ..telemetry.events import JobTimedOut, WorkerCrashed, WorkerRespawned
from .cache import ModelCache

__all__ = ["ShardPool"]

#: Seconds between liveness checks while waiting on a worker's result.
_POLL_INTERVAL = 0.05

#: Stall-injection sleep: long enough to model "wedged forever" against any
#: realistic ``job_timeout`` without leaving a sleeping process behind should
#: termination somehow fail.
_STALL_SECONDS = 3600.0

def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach a worker to the pool-owned segment without adopting ownership.

    Attaching registers the segment with the process's resource tracker,
    which would try to unlink it at worker exit (and warn about a "leaked"
    segment the parent is still using).  Unregistering after the fact is
    wrong under the fork start method — the child shares the parent's
    tracker process, so the child's unregister would also cancel the
    parent's own registration.  Instead the registration is suppressed: the
    parent alone tracks the segment's lifetime.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _destroy_segment(segment: shared_memory.SharedMemory | None) -> None:
    """Release and unlink a pool-owned segment (tolerates double destruction)."""
    if segment is None:
        return
    try:
        segment.close()
    except (BufferError, OSError):
        pass
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):
        pass


def _job_views(segment: shared_memory.SharedMemory,
               shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A job's rows (front of the segment) and results (right after)."""
    rows = np.ndarray(shape, dtype=np.float64, buffer=segment.buf)
    out = np.ndarray(shape, dtype=np.float64, buffer=segment.buf,
                     offset=rows.nbytes)
    return rows, out


def _worker_main(conn, segment_name: str, registry_root: str,
                 cache_bytes: int, fault_keys: frozenset[str],
                 stall_keys: frozenset[str], delay_s: float) -> None:
    """Worker loop: receive a job descriptor, evaluate, reply with one.

    Jobs arrive as ``(job_id, key, shape)``: the rows sit at the front of
    the worker's segment and the kernel writes its outputs right after them
    (``evaluate_batch(out=...)``), so the reply pipes back only ``(job_id,
    True, (t_start, eval_s, stage_out_s))`` — the stage stamps feed the
    parent-materialised worker spans.

    ``fault_keys`` is crash-injection instrumentation for the failure-path
    tests: serving a listed key terminates the process the way a segfault
    would (``os._exit``, no cleanup, no reply).  ``stall_keys`` is
    wedge-injection for the job-deadline tests: serving a listed key sleeps
    as if stuck in a deadlocked evaluate — alive, but never replying.
    Respawned workers never inherit either injection, which gives
    deterministic crash-once / stall-once semantics.  ``delay_s`` is
    latency-injection instrumentation for the dispatch-lane benchmark:
    every job stalls that long before evaluating, modelling the I/O /
    remote-shard latency that per-model lanes exist to hide.
    """
    segment = _attach_segment(segment_name)
    cache = ModelCache(cache_bytes)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message is None:
                conn.close()
                return
            job_id, key, shape = message
            if key in fault_keys:
                os._exit(43)
            if key in stall_keys:
                time.sleep(_STALL_SECONDS)
            if delay_s > 0.0:
                time.sleep(delay_s)
            try:
                # Stage stamps ride the reply descriptor as three floats
                # (t_start, eval_s, stage_out_s) on the shared Linux
                # CLOCK_MONOTONIC; the parent materialises the worker-side
                # spans from them, so the worker never needs (and per
                # REP106 must never capture) the tracer itself.
                t_job = time.monotonic()
                model = cache.get_or_load(
                    key, ModelHandle(registry_root, key).load)
                rows, out = _job_views(segment, shape)
                stamps: dict = {}
                evaluate_batch(model, rows, out=out, timings=stamps)
                del rows, out        # views must not pin segment.buf
                out_s = stamps.get("stage_out_s", 0.0)
                eval_s = max(0.0, time.monotonic() - t_job - out_s)
                conn.send((job_id, True, (t_job, eval_s, out_s)))
            except Exception:   # noqa: BLE001 - workers must report, never crash
                conn.send((job_id, False, traceback.format_exc()))
    finally:
        try:
            segment.close()
        except (BufferError, OSError):   # pragma: no cover - best effort
            pass


class _Worker:
    __slots__ = ("process", "conn", "segment")

    def __init__(self, process, conn, segment) -> None:
        self.process = process
        self.conn = conn
        #: Pool-owned shared-memory segment (None once reclaimed).
        self.segment = segment


class ShardPool:
    """Fixed-size pool of model-serving worker processes.

    Parameters
    ----------
    registry_root:
        Directory of the :class:`~repro.runtime.registry.ModelRegistry` the
        workers load models from.
    n_workers:
        Worker process count (at least 1).
    cache_bytes:
        Byte budget of each worker's warm-model LRU cache.
    max_retries:
        Crash-retries per shard job before the batch fails.
    mp_context:
        Optional :mod:`multiprocessing` start-method name (platform default
        when omitted; ``fork`` on Linux keeps worker start-up cheap).
    segment_bytes:
        Size of each worker's shared-memory dataplane segment.  A job needs
        two regions (rows in, results out), so a job holds at most
        ``segment_bytes // (16 * n_steps)`` rows; a batch with more rows per
        leased worker is cut into more jobs, run in waves.  A batch whose
        single row does not fit fails with a
        :class:`~repro.exceptions.ServeError`.
    job_timeout:
        Per-job deadline in seconds, counted from the job's dispatch; a
        worker that holds a job longer is treated as crashed (respawned,
        retry budget charged).  ``0`` disables the deadline.
    fault_injection:
        Test instrumentation: model keys whose service crashes the first
        worker that picks them up (see :func:`_worker_main`).
    stall_injection:
        Test instrumentation: model keys whose first service wedges the
        worker — alive but never replying — to exercise ``job_timeout``.
    delay_injection:
        Benchmark instrumentation: a per-job stall (seconds) in every
        worker, modelling remote-shard / I/O latency (see
        :func:`_worker_main`).  Unlike fault injection it survives respawns.
    broker:
        Optional :class:`~repro.telemetry.broker.TopicBroker` the pool
        publishes its failure-path events to (``WorkerCrashed``,
        ``JobTimedOut``, ``WorkerRespawned``); the server passes its own.
    """

    def __init__(self, registry_root, n_workers: int, cache_bytes: int = 256 << 20,
                 max_retries: int = 2, mp_context: str | None = None,
                 segment_bytes: int = 64 << 20, job_timeout: float = 0.0,
                 fault_injection=None, stall_injection=None,
                 delay_injection: float = 0.0, broker=None) -> None:
        if n_workers < 1:
            raise ServeError("ShardPool needs at least one worker")
        self.broker = broker
        self.registry_root = str(registry_root)
        self.cache_bytes = int(cache_bytes)
        self.max_retries = int(max_retries)
        self.segment_bytes = int(segment_bytes)
        if self.segment_bytes < 16:
            raise ServeError(
                f"ShardPool segment_bytes={self.segment_bytes} cannot hold "
                "one sample in and out (16 bytes)")
        self.job_timeout = float(job_timeout)
        self._ctx = multiprocessing.get_context(mp_context)
        self._fault_keys = frozenset(fault_injection or ())
        self._stall_keys = frozenset(stall_injection or ())
        self._delay_s = float(delay_injection)
        #: Worker leasing: each evaluate() call takes some exclusive subset
        #: of worker indices (every free one, at least one) and returns them
        #: when its batch is collected.  The condition's lock also guards the
        #: job-id sequence and the public counters.
        self._lease = lockwatch.monitored_condition("serve.shards.lease")
        self._free: set[int] = set(range(int(n_workers)))
        self.respawns = 0
        self.retried_jobs = 0
        self.timed_out_jobs = 0
        self._closed = False
        #: Monotonic job id; replies are matched against it so a batch
        #: abandoned mid-collection (crash, worker exception) can never leak
        #: its stale replies into the next batch's results.
        self._sequence = 0
        self._workers: list[_Worker] = [
            self._spawn(self._fault_keys, self._stall_keys)
            for _ in range(int(n_workers))]

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    # ------------------------------------------------------------ process mgmt
    def _spawn(self, fault_keys: frozenset[str],
               stall_keys: frozenset[str]) -> _Worker:
        segment = shared_memory.SharedMemory(create=True,
                                             size=self.segment_bytes)
        parent_conn, child_conn = self._ctx.Pipe()
        try:
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, segment.name, self.registry_root,
                      self.cache_bytes, fault_keys, stall_keys,
                      self._delay_s),
                daemon=True)
            process.start()
        except BaseException:
            _destroy_segment(segment)
            raise
        child_conn.close()      # parent's copy; the worker holds the live end
        return _Worker(process, parent_conn, segment)

    def _respawn(self, index: int) -> None:
        """Replace a dead (or wedged) worker with a fresh one.

        The fresh worker starts with a cold cache, no injections, and a new
        shared segment — the old segment is reclaimed here, so a worker
        killed while holding shm regions can never strand kernel memory or
        leave reassembly pointing at an unlinked segment.

        Only ever called by the thread currently holding worker ``index``'s
        lease, so the slot mutation needs no extra locking.  Refuses once
        the pool is closed: ``close()`` joins the workers it knows about,
        and a lease holder racing it must not spawn processes (or segments)
        that nobody would ever reap.
        """
        with self._lease:
            if self._closed:
                raise ServeError(
                    "shard pool is closed; refusing to respawn a worker "
                    "after close() — the replacement would outlive the pool")
        worker = self._workers[index]
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():   # pragma: no cover - SIGTERM ignored
            worker.process.kill()
            worker.process.join(timeout=5.0)
        _destroy_segment(worker.segment)
        worker.segment = None
        self._workers[index] = self._spawn(frozenset(), frozenset())
        with self._lease:
            self.respawns += 1
        if self.broker:
            self.broker.publish(WorkerRespawned(worker_index=index))

    # --------------------------------------------------------------- transport
    def _stage(self, index: int, key: str, job_id: int, rows):
        """Copy ``rows`` into the worker's segment; returns the job message.

        The only copy on the dispatch side: each row goes straight from the
        caller's array into its place in the segment, and the worker reads
        and writes the segment in place.  The region is always the front of
        the segment: a worker holds at most one job at a time, and a crashed
        or timed-out worker is respawned with a fresh segment before any
        retry, so reuse can never alias a dead job's bytes — while keeping
        the pages warm across batches instead of faulting fresh ones per job.
        """
        shape = (len(rows), len(rows[0]))
        staged = _job_views(self._workers[index].segment, shape)[0]
        for i, row in enumerate(rows):
            staged[i] = row
        del staged                       # views must not pin segment.buf
        return (job_id, key, shape)

    def _send(self, index: int, payload) -> bool:
        worker = self._workers[index]
        if not worker.process.is_alive():
            return False
        try:
            worker.conn.send(payload)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _recv(self, index: int, expect_id: int, deadline: float | None):
        """``(reply, None)`` for job ``expect_id``, or ``(None, reason)``.

        ``reason`` is ``"crash"`` for a worker that died and ``"timeout"``
        for one that is alive but still holds the job at ``deadline`` (on
        the monotonic clock, stamped when the job was dispatched, so the
        jobs of one wave time out together rather than one after another).
        The caller treats both identically for recovery (respawn, charge
        the retry budget) and only uses the reason to publish the right
        telemetry event: a wedged worker must never hang a lane.  Stale
        replies from previously abandoned batches are discarded.
        """
        worker = self._workers[index]
        while True:
            wait = _POLL_INTERVAL if deadline is None else min(
                _POLL_INTERVAL, max(0.0, deadline - time.monotonic()))
            try:
                if worker.conn.poll(wait):
                    reply = worker.conn.recv()
                    if reply[0] == expect_id:
                        return reply, None
                    continue        # stale reply from an abandoned batch
            except Exception:   # repro: allow[REP104] EOF/partial pickle means the worker died; surfaced as a crash result
                return None, "crash"
            if not worker.process.is_alive():
                # Drain a reply that raced the death, then report the crash.
                try:
                    while worker.conn.poll(0):
                        reply = worker.conn.recv()
                        if reply[0] == expect_id:
                            return reply, None
                except Exception:   # repro: allow[REP104] draining a dead worker's pipe is best-effort; crash is reported below
                    pass
                return None, "crash"
            if deadline is not None and time.monotonic() >= deadline:
                with self._lease:
                    self.timed_out_jobs += 1
                return None, "timeout"  # alive but wedged: treat as a crash

    # ----------------------------------------------------------------- leasing
    def _acquire_workers(self, max_needed: int) -> list[int]:
        """Lease up to ``max_needed`` free worker indices (at least one).

        Blocks while no worker is free; raises once the pool is closed — a
        caller blocked here must not wait forever on workers that are being
        shut down.
        """
        with self._lease:
            while True:
                if self._closed:
                    raise ServeError("shard pool is closed")
                if self._free:
                    leased = sorted(self._free)[:max(1, max_needed)]
                    self._free.difference_update(leased)
                    return leased
                self._lease.wait()

    def _release_workers(self, leased: list[int]) -> None:
        with self._lease:
            self._free.update(leased)
            self._lease.notify_all()

    # --------------------------------------------------------------- execution
    def evaluate(self, key: str, rows, max_workers: int | None = None,
                 trace_ids=None, spans=None) -> list[np.ndarray]:
        """Evaluate a lock-step batch, sharded across leased workers.

        ``rows`` is a sequence of equal-length 1-D sample arrays (a list of
        requests' samples, or the rows of a 2-D array); each is staged
        straight into its worker's segment.  Returns one output row per
        input row, in order, each copied out of the segment into an array
        of its own — bitwise-equal to the rows of a single-process
        :meth:`CompiledModel.evaluate
        <repro.runtime.compiled.CompiledModel.evaluate>` of the stacked
        array (the batch kernel is bitwise chunk-invariant, so neither the
        lease size nor the number of jobs and waves changes results).

        Thread-safe by leasing: each concurrent call owns a disjoint subset
        of workers (each pipe still has exactly one reader — the lease
        holder), so batches for different models execute simultaneously.
        ``max_workers`` caps this call's lease — a fair-share hint from the
        dispatch lanes so the first lane to dispatch cannot starve the
        others by grabbing the whole pool; a lone caller (no cap) leases
        every free worker.  ``trace_ids`` (one per input row, in row order)
        and ``spans`` only feed telemetry: failure events name exactly the
        requests that were riding on the affected shard, and ``spans`` —
        the caller's :class:`~repro.telemetry.spans.SpanBatch`, opened over
        ``trace_ids`` — collects one lease span for the batch and one
        stage-in, worker-evaluate, worker-stage-out and reassembly span per
        job (per attempt, for retried jobs).  The caller flushes it, also
        when this call raises.  Workers never see it (REP106): their stage
        timings ride the reply descriptors.
        """
        if self._closed:
            raise ServeError("shard pool is closed")
        shape = np.shape(rows[0]) if len(rows) else ()
        if len(shape) != 1 or any(np.shape(row) != shape for row in rows):
            raise ServeError("shard batch must be one or more equal-length "
                             f"1-D rows; got {len(rows)} row(s)")
        cap = len(rows)
        if max_workers is not None:
            cap = min(cap, max(1, int(max_workers)))
        t_lease = time.monotonic()
        leased = self._acquire_workers(cap)
        if spans is not None:
            spans.add("shard_lease", t_lease, time.monotonic() - t_lease,
                      parent="serve_execute")
        try:
            return self._evaluate_on(leased, key, rows, trace_ids, spans)
        finally:
            self._release_workers(leased)

    def _shard_traces(self, trace_ids, shard_slice) -> tuple:
        if trace_ids is None:
            return ()
        return tuple(trace_ids[shard_slice])

    def _evaluate_on(self, leased: list[int], key: str, rows,
                     trace_ids=None, spans=None) -> list[np.ndarray]:
        n_rows, n_steps = len(rows), len(rows[0])
        rows_per_job = self.segment_bytes // (16 * n_steps)
        if rows_per_job < 1:
            raise ServeError(
                f"one row of {n_steps} samples needs {16 * n_steps} bytes of "
                "shared segment (rows in + results out); ShardPool "
                f"segment_bytes={self.segment_bytes} is too small")
        slices = shard_slices(n_rows, max(len(leased),
                                          -(-n_rows // rows_per_job)))
        outputs: list = [None] * n_rows
        pending = list(range(len(slices)))
        crashes = [0] * len(slices)
        while pending:
            # One wave: at most one job per leased worker.  A crashed or
            # timed-out job rejoins the queue for a later wave.
            wave, pending = pending[:len(leased)], pending[len(leased):]
            dispatched: list[tuple[int, int, int, float | None]] = []
            spawn_failure: int | None = None
            for job, worker in zip(wave, leased):
                t_stage = time.monotonic()
                job_id = self._dispatch(worker, key, rows[slices[job]])
                if spans is not None:
                    # Stage-in covers staging the job's rows into the
                    # worker's segment plus the descriptor send; a retried
                    # job re-emits it, so retry attempts show up as sibling
                    # spans under the same parent.
                    spans.add("shard_stage_in", t_stage,
                              time.monotonic() - t_stage,
                              parent="serve_execute", worker_index=worker,
                              trace_ids=self._shard_traces(trace_ids,
                                                           slices[job]))
                if job_id is None:
                    spawn_failure = job
                    break
                deadline = (time.monotonic() + self.job_timeout
                            if self.job_timeout > 0.0 else None)
                dispatched.append((job, worker, job_id, deadline))
            # Collect EVERY dispatched reply before acting on any failure:
            # a worker still evaluating would write its results over the
            # rows the next job stages into its segment.  Between waves
            # every leased worker is idle and every leased pipe drained.
            failure: ServeError | None = None
            for job, worker, job_id, deadline in dispatched:
                reply, reason = self._recv(worker, job_id, deadline)
                if reply is None:           # crash/wedge: respawn, maybe retry
                    if self.broker:
                        shard_traces = self._shard_traces(trace_ids,
                                                          slices[job])
                        if reason == "timeout":
                            self.broker.publish(JobTimedOut(
                                worker_index=worker, key=key,
                                timeout_s=self.job_timeout,
                                trace_ids=shard_traces))
                        else:
                            self.broker.publish(WorkerCrashed(
                                worker_index=worker, key=key,
                                trace_ids=shard_traces))
                    crashes[job] += 1
                    self._respawn(worker)
                    if crashes[job] > self.max_retries:
                        failure = failure or ServeError(
                            f"shard job for rows {slices[job]} of model "
                            f"{key[:12]}... crashed {crashes[job]} time(s); "
                            f"retry budget max_retries={self.max_retries} "
                            "exhausted")
                        continue
                    with self._lease:
                        self.retried_jobs += 1
                    pending.append(job)
                    continue
                _, ok, payload = reply
                if not ok:                  # worker-side exception: no retry
                    failure = failure or ServeError(
                        f"shard worker failed to evaluate model {key[:12]}...:"
                        f"\n{payload}")
                    continue
                shard = slices[job]
                if spans is not None:
                    # Materialise the worker-side spans from the stamped
                    # timings (same CLOCK_MONOTONIC, different process).
                    t_job, eval_s, out_s = payload
                    job_traces = self._shard_traces(trace_ids, shard)
                    spans.add("worker_evaluate", t_job, eval_s,
                              parent="serve_execute", worker_index=worker,
                              trace_ids=job_traces)
                    spans.add("worker_stage_out", t_job + eval_s, out_s,
                              parent="serve_execute", worker_index=worker,
                              trace_ids=job_traces)
                t_reassemble = time.monotonic()
                results = _job_views(self._workers[worker].segment,
                                     (shard.stop - shard.start, n_steps))[1]
                outputs[shard] = [row.copy() for row in results]
                del results              # views must not pin segment.buf
                if spans is not None:
                    spans.add("serve_reassemble", t_reassemble,
                              time.monotonic() - t_reassemble,
                              parent="serve_execute", worker_index=worker,
                              trace_ids=job_traces)
            if spawn_failure is not None:
                failure = failure or ServeError(
                    f"shard worker for rows {slices[spawn_failure]} of model "
                    f"{key[:12]}... could not be (re)started")
            if failure is not None:
                raise failure
        return outputs

    # ----------------------------------------------------------------- control
    def _dispatch(self, worker_index: int, key: str, rows) -> int | None:
        """Send one job (respawning a dead worker once); returns its job id."""
        with self._lease:
            self._sequence += 1
            job_id = self._sequence
        if self._send(worker_index, self._stage(worker_index, key, job_id,
                                                rows)):
            return job_id
        # Dead before the job even reached it — no rows were riding on it
        # yet, so the crash event names the worker and key but no traces.
        if self.broker:
            self.broker.publish(WorkerCrashed(worker_index=worker_index,
                                              key=key))
        self._respawn(worker_index)
        # The respawned worker owns a fresh segment: re-stage the rows.
        if self._send(worker_index, self._stage(worker_index, key, job_id,
                                                rows)):
            return job_id
        return None

    def stats(self) -> dict:
        with self._lease:
            return {"n_workers": self.n_workers, "respawns": self.respawns,
                    "retried_jobs": self.retried_jobs,
                    "timed_out_jobs": self.timed_out_jobs,
                    "segment_bytes": self.segment_bytes,
                    "free_workers": len(self._free)}

    def close(self, timeout: float = 10.0) -> None:
        """Shut every worker down and reclaim the segments (idempotent).

        Outstanding leases are given ``timeout`` seconds to return their
        workers first, so a batch mid-collection is never raced for its
        pipe; callers blocked waiting for a lease are woken and fail with a
        "pool is closed" :class:`~repro.exceptions.ServeError`, and a lease
        holder that hits a crash after this point cannot respawn (see
        :meth:`_respawn`) — no worker process can outlive the close.
        """
        with self._lease:
            if self._closed:
                return
            self._closed = True
            self._lease.notify_all()
            deadline = time.monotonic() + timeout
            while len(self._free) < len(self._workers):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._lease.wait(remaining)
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            _destroy_segment(worker.segment)
            worker.segment = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:   # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:   # repro: allow[REP104] __del__ during interpreter teardown must never raise
            pass
