"""Tests of the serving layer: micro-batching, lanes, sharding, failure paths."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ServeError, ServerClosedError
from repro.runtime import ModelRegistry, compile_model, shard_slices
from repro.rvf.hammerstein import HammersteinBranch, HammersteinModel
from repro.rvf.residues import PartialFractionFunction
from repro.serve import (
    LatencySummary,
    MicroBatcher,
    ModelCache,
    ModelServer,
    ServePolicy,
    ServeRequest,
    ShardPool,
)
from repro.serve.stats import ALPHA

#: Generous wall-clock bound on any future in these tests; failure-path
#: futures must resolve (successfully or not) well before this — the serving
#: contract is "retried or failed cleanly, never hung".
FUTURE_TIMEOUT = 60.0


def small_model(tau: float = 1.0) -> HammersteinModel:
    """A one-complex-pair, one-real-branch model (compiles in microseconds)."""
    def pf(poles, coeffs, const):
        return PartialFractionFunction(np.asarray(poles, complex),
                                       np.asarray(coeffs, complex), const)

    gain = pf([-2.0 + 0.5j], [0.3 + 0.1j], 1.2)
    pair = pf([-1.5 + 0.2j], [0.2 - 0.05j], 0.4 + 0.2j)
    real = pf([-1.0], [0.15], 0.2)
    branches = [
        HammersteinBranch(pole=(-3e7 + 1e8j) * tau, residue_function=pair,
                          static_function=pair.antiderivative()
                          .with_value_at(0.5, 0.0), is_complex_pair=True),
        HammersteinBranch(pole=-5e7 * tau, residue_function=real,
                          static_function=real.antiderivative()
                          .with_value_at(0.5, 0.0), is_complex_pair=False),
    ]
    return HammersteinModel(
        branches=branches, gain_function=gain,
        static_function=gain.antiderivative().with_value_at(0.5, 0.3),
        dc_input=0.5, dc_output=0.3)


@pytest.fixture(scope="module")
def compiled():
    return compile_model(small_model(), dt=1e-9, input_range=(0.0, 1.0))


@pytest.fixture()
def registry(compiled, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    registry.save(compiled)
    return registry


@pytest.fixture()
def key(compiled):
    from repro.runtime import content_hash

    return content_hash(compiled)


def request_batch(n_rows: int = 24, n_steps: int = 64, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.5 + 0.3 * rng.standard_normal((n_rows, n_steps))


def wait_until_taken(server: ModelServer, key: str) -> None:
    """Block until ``key``'s lane has taken every request submitted so far."""
    deadline = time.monotonic() + FUTURE_TIMEOUT
    while server.stats().per_model[key].n_coalescing:
        assert time.monotonic() < deadline, "lane never took the request"
        time.sleep(1e-3)


# --------------------------------------------------------------------------- cache
class _FakeModel:
    def __init__(self, nbytes):
        self.nbytes = nbytes


class TestModelCache:
    def test_lru_eviction_under_byte_budget(self):
        cache = ModelCache(max_bytes=100)
        loads = []

        def loader(name, nbytes):
            def load():
                loads.append(name)
                return _FakeModel(nbytes)
            return load

        a = cache.get_or_load("a", loader("a", 40))
        b = cache.get_or_load("b", loader("b", 40))
        assert cache.keys == ["a", "b"] and cache.current_bytes == 80
        # Touch "a" so "b" becomes the least recently used entry.
        assert cache.get_or_load("a", loader("a", 40)) is a
        c = cache.get_or_load("c", loader("c", 40))
        assert cache.keys == ["a", "c"]
        assert cache.current_bytes == 80
        assert cache.stats.evictions == 1
        # "b" was evicted: loading it again calls the loader afresh.
        b2 = cache.get_or_load("b", loader("b", 40))
        assert b2 is not b
        assert loads == ["a", "b", "c", "b"]
        assert b is not c   # silence unused warnings

    def test_model_larger_than_budget_served_but_not_admitted(self):
        cache = ModelCache(max_bytes=100)
        small = cache.get_or_load("small", lambda: _FakeModel(60))
        big = cache.get_or_load("big", lambda: _FakeModel(200))
        assert big.nbytes == 200
        assert cache.keys == ["small"]       # the oversized model never evicts
        assert cache.stats.uncached == 1
        assert cache.get_or_load("small", lambda: _FakeModel(60)) is small

    def test_zero_budget_never_caches(self):
        cache = ModelCache(max_bytes=0)
        cache.get_or_load("a", lambda: _FakeModel(1))
        assert len(cache) == 0 and cache.stats.uncached == 1

    def test_drop_and_clear(self):
        cache = ModelCache(max_bytes=100)
        cache.get_or_load("a", lambda: _FakeModel(30))
        cache.get_or_load("b", lambda: _FakeModel(30))
        cache.drop("a")
        cache.drop("missing")                # no-op
        assert cache.keys == ["b"] and cache.current_bytes == 30
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0


# ------------------------------------------------------------------------- batcher
class TestMicroBatcher:
    @staticmethod
    def request(key="m", n_steps=8):
        return ServeRequest(key=key, samples=np.zeros(n_steps))

    def test_full_fifo_is_taken_whole_in_order(self):
        batcher = MicroBatcher(max_batch=3, max_wait=10.0)
        first, second = self.request(), self.request()
        assert batcher.add(first, now=0.0)          # first pending: wake
        assert not batcher.add(second, now=0.1)
        assert batcher.take(now=0.15) is None       # neither full nor due
        assert batcher.add(self.request(), now=0.2)  # filled: wake
        batch = batcher.take(now=0.5)
        assert batch is not None and len(batch) == 3
        assert batch.requests[0] is first and batch.requests[1] is second
        assert batcher.pending() == 0 and batcher.take(now=0.5) is None
        # Released by the filling arrival, not by the (later) take.
        assert all(r.t_closed == 0.2 for r in batch.requests)

    def test_take_waits_for_the_deadline_pinned_by_oldest(self):
        batcher = MicroBatcher(max_batch=100, max_wait=1.0)
        batcher.add(self.request(), now=5.0)
        batcher.add(self.request(), now=5.9)     # must not extend the wait
        assert batcher.next_deadline() == pytest.approx(6.0)
        assert batcher.take(now=5.99) is None
        batch = batcher.take(now=7.5)            # lane was busy until 7.5
        assert len(batch) == 2
        # Both were released at the deadline, whenever the lane got there.
        assert all(r.t_closed == pytest.approx(6.0) for r in batch.requests)
        assert batcher.next_deadline() is None

    def test_fifos_are_per_key_and_length(self):
        batcher = MicroBatcher(max_batch=2, max_wait=10.0)
        batcher.add(self.request("a"), 0.0)
        batcher.add(self.request("b"), 0.1)
        batcher.add(self.request("a", n_steps=16), 0.2)
        assert batcher.pending() == 3
        batcher.add(self.request("a"), 0.3)             # fills ("a", 8)
        batch = batcher.take(now=0.3)
        assert batch.key == "a" and batch.n_steps == 8 and len(batch) == 2
        assert batcher.take(now=0.3) is None
        batcher.flush(now=1.0)
        taken = [batcher.take(now=1.0), batcher.take(now=1.0)]
        # Oldest ready FIFO first: ("b", 8) was submitted before ("a", 16).
        assert [(b.key, b.n_steps) for b in taken] == [("b", 8), ("a", 16)]
        assert batcher.pending() == 0

    def test_take_is_limited_to_the_lanes_keys(self):
        batcher = MicroBatcher(max_batch=10, max_wait=10.0)
        batcher.add(self.request("a"), 0.0)
        batcher.add(self.request("a", n_steps=16), 0.0)
        batcher.add(self.request("b"), 0.0)
        assert batcher.pending("a") == 2 and batcher.pending("b") == 1
        assert batcher.keys() == {"a", "b"}
        assert batcher.next_deadline({"b"}) == pytest.approx(10.0)
        batcher.flush(now=1.0)
        taken = [batcher.take(1.0, {"a"}), batcher.take(1.0, {"a"})]
        assert sorted(b.n_steps for b in taken) == [8, 16]
        assert all(b.key == "a" for b in taken)
        assert batcher.take(1.0, {"a"}) is None
        assert batcher.pending("a") == 0 and batcher.pending("b") == 1
        assert batcher.keys() == {"b"}
        assert all(r.t_closed == 1.0 for b in taken for r in b.requests)

    def test_busy_lane_backlog_leaves_as_one_batch(self):
        """Three bursts pile up behind a busy lane; one take serves them
        all, each burst stamped with its own group's deadline."""
        batcher = MicroBatcher(max_batch=12, max_wait=1.0)
        bursts = [[self.request() for _ in range(4)] for _ in range(3)]
        for i, burst in enumerate(bursts):
            for j, request in enumerate(burst):
                batcher.add(request, now=10.0 * i + 0.1 * j)
        batch = batcher.take(now=100.0)
        assert batch.requests == [r for burst in bursts for r in burst]
        for i, burst in enumerate(bursts):
            assert all(r.t_closed == 10.0 * i + 1.0 for r in burst)
        assert batcher.pending() == 0

    def test_rows_taken_before_release_are_stamped_at_take(self):
        batcher = MicroBatcher(max_batch=3, max_wait=1.0)
        old = [self.request() for _ in range(2)]
        young = [self.request() for _ in range(2)]
        for t, request in zip((0.0, 0.5), old):
            batcher.add(request, now=t)
        for t, request in zip((2.0, 2.5), young):
            batcher.add(request, now=t)
        batch = batcher.take(now=2.6)          # old group due at 1.0
        assert batch.requests == old + young[:1]
        assert [r.t_closed for r in batch.requests] == [1.0, 1.0, 2.6]
        # The row left behind starts a fresh group pinned by itself.
        assert batcher.next_deadline() == pytest.approx(3.5)
        assert batcher.take(now=3.4) is None
        rest = batcher.take(now=3.5)
        assert rest.requests == young[1:] and young[1].t_closed == 3.5

    def test_arrival_after_the_deadline_starts_the_next_group(self):
        """A group past its deadline is released then, even if a later
        arrival would have filled it: the late joiner waits afresh."""
        batcher = MicroBatcher(max_batch=2, max_wait=1.0)
        early, late = self.request(), self.request()
        batcher.add(early, now=0.0)
        assert not batcher.add(late, now=5.0)      # did not fill a group
        assert early.t_closed == 1.0
        assert batcher.next_deadline() == pytest.approx(6.0)
        batch = batcher.take(now=5.5)
        assert batch.requests == [early, late]
        assert late.t_closed == 5.5               # taken before its release


# --------------------------------------------------------------------- shard pool
class TestShardSlices:
    def test_partition_covers_rows_in_order(self):
        for n_rows, n_shards in [(10, 3), (3, 8), (1, 1), (16, 4), (7, 7)]:
            slices = shard_slices(n_rows, n_shards)
            assert len(slices) == min(n_rows, n_shards)
            covered = np.concatenate([np.arange(s.start, s.stop) for s in slices])
            np.testing.assert_array_equal(covered, np.arange(n_rows))
            sizes = [s.stop - s.start for s in slices]
            assert max(sizes) - min(sizes) <= 1


class TestShardPool:
    def test_bitwise_equal_to_single_process_evaluate(self, registry, compiled, key):
        batch = request_batch(23, 96)
        direct = compiled.evaluate(batch)
        for n_workers in (1, 2, 3):
            with ShardPool(registry.root, n_workers) as pool:
                np.testing.assert_array_equal(pool.evaluate(key, batch), direct)

    def test_worker_killed_mid_batch_respawns_and_retries(self, registry,
                                                          compiled, key):
        """Acceptance: a crash mid-batch is retried, never hung."""
        batch = request_batch(9, 32)
        with ShardPool(registry.root, 2, fault_injection={key}) as pool:
            outputs = pool.evaluate(key, batch)
            np.testing.assert_array_equal(outputs, compiled.evaluate(batch))
            assert pool.respawns >= 1
            assert pool.retried_jobs >= 1

    def test_externally_killed_idle_worker_is_respawned(self, registry,
                                                        compiled, key):
        batch = request_batch(8, 32)
        with ShardPool(registry.root, 2) as pool:
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            pool._workers[0].process.join(timeout=10.0)
            outputs = pool.evaluate(key, batch)
            np.testing.assert_array_equal(outputs, compiled.evaluate(batch))
            assert pool.respawns == 1

    def test_retry_budget_exhausted_fails_cleanly(self, registry, key):
        with ShardPool(registry.root, 2, max_retries=0,
                       fault_injection={key}) as pool:
            with pytest.raises(ServeError, match="max_retries=0"):
                pool.evaluate(key, request_batch(6, 32))

    def test_worker_exception_propagates_without_retry(self, registry):
        with ShardPool(registry.root, 2) as pool:
            with pytest.raises(ServeError, match="no registry entry"):
                pool.evaluate("0" * 64, request_batch(6, 32))
            assert pool.respawns == 0        # an exception is not a crash

    def test_abandoned_batch_replies_never_leak_into_next(self, registry,
                                                          compiled, key):
        """A failed batch leaves stale replies in pipes; they must be skipped."""
        batch = request_batch(8, 32)
        with ShardPool(registry.root, 2) as pool:
            with pytest.raises(ServeError):
                pool.evaluate("0" * 64, batch)   # both workers reply; one read
            outputs = pool.evaluate(key, batch)
            np.testing.assert_array_equal(outputs, compiled.evaluate(batch))

    def test_closed_pool_rejects_work(self, registry, key):
        pool = ShardPool(registry.root, 1)
        pool.close()
        pool.close()                             # idempotent
        with pytest.raises(ServeError, match="closed"):
            pool.evaluate(key, request_batch(2, 8))

    def test_oversized_batch_runs_in_waves_bitwise_equal(self, registry,
                                                         compiled, key):
        """A batch too large for one job per worker is cut into
        segment-sized jobs that run in waves and stay bitwise-equal."""
        batch = request_batch(13, 64)
        direct = compiled.evaluate(batch)
        # A 64-sample row needs 512 B in + 512 B out: a 1 KiB segment holds
        # one row per job, so 13 jobs run in 7 waves over 2 workers.
        with ShardPool(registry.root, 2, segment_bytes=1024) as pool:
            np.testing.assert_array_equal(pool.evaluate(key, batch), direct)

    @pytest.mark.parametrize("segment_bytes", [64 << 20, 1024],
                             ids=["one-wave", "13-waves"])
    def test_list_of_rows_returns_owned_rows(self, registry, compiled, key,
                                             segment_bytes):
        """Rows given as separate 1-D arrays come back as separate owned
        rows, bitwise-equal to evaluating the stacked array."""
        batch = request_batch(13, 64)
        rows = [row.copy() for row in batch]
        with ShardPool(registry.root, 2, segment_bytes=segment_bytes) as pool:
            outputs = pool.evaluate(key, rows)
        direct = compiled.evaluate(batch)
        assert isinstance(outputs, list) and len(outputs) == len(rows)
        for output, expected in zip(outputs, direct):
            assert output.flags.owndata and output.shape == (64,)
            # Still readable after close(): nothing points into a segment.
            np.testing.assert_array_equal(output, expected)

    def test_waves_retry_a_crashed_job_in_a_later_wave(self, registry,
                                                       compiled, key):
        batch = request_batch(13, 64)
        with ShardPool(registry.root, 2, segment_bytes=1024,
                       fault_injection={key}) as pool:
            np.testing.assert_array_equal(pool.evaluate(key, batch),
                                          compiled.evaluate(batch))
            assert pool.respawns >= 1 and pool.retried_jobs >= 1

    def test_waves_retry_a_wedged_job_after_its_timeout(self, registry,
                                                        compiled, key):
        batch = request_batch(13, 64)
        with ShardPool(registry.root, 2, segment_bytes=1024, job_timeout=0.5,
                       stall_injection={key}) as pool:
            np.testing.assert_array_equal(pool.evaluate(key, batch),
                                          compiled.evaluate(batch))
            assert pool.stats()["timed_out_jobs"] >= 1
            assert pool.retried_jobs >= 1

    def test_row_wider_than_half_the_segment_is_a_named_error(self, registry,
                                                              compiled, key):
        with ShardPool(registry.root, 2, segment_bytes=1024) as pool:
            with pytest.raises(ServeError, match="segment_bytes=1024"):
                pool.evaluate(key, request_batch(3, 65))
            batch = request_batch(3, 64)         # the pool keeps serving
            np.testing.assert_array_equal(pool.evaluate(key, batch),
                                          compiled.evaluate(batch))
        with pytest.raises(ServeError, match="segment_bytes=0"):
            ShardPool(registry.root, 1, segment_bytes=0)

    def test_region_reuse_across_many_batches(self, registry, compiled, key):
        """A segment barely larger than one job forces every batch to reuse
        the same region; results must stay bitwise-equal throughout."""
        batch = request_batch(6, 128)
        direct = compiled.evaluate(batch)
        # Each job is 3 * 128 * 8 = 3072 B staged twice (in + out);
        # a 20 KiB segment leaves no slack beyond the reused region.
        with ShardPool(registry.root, 2, segment_bytes=20 << 10) as pool:
            for _ in range(16):
                np.testing.assert_array_equal(pool.evaluate(key, batch),
                                              direct)

    def test_worker_killed_while_holding_segment(self, registry, compiled,
                                                 key):
        """Satellite: a crash mid-batch must reclaim the dead worker's
        segment — the respawn owns a fresh one, reassembly never touches an
        unlinked segment, and no FileNotFoundError escapes."""
        batch = request_batch(9, 32)
        with ShardPool(registry.root, 2, fault_injection={key}) as pool:
            old_names = {worker.segment.name for worker in pool._workers}
            outputs = pool.evaluate(key, batch)
            np.testing.assert_array_equal(outputs, compiled.evaluate(batch))
            assert pool.respawns >= 1
            new_names = {worker.segment.name for worker in pool._workers}
            recycled = old_names - new_names
            assert recycled               # at least one segment was replaced
            from multiprocessing import shared_memory
            for name in recycled:         # ...and actually unlinked
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)

    def test_wedged_worker_hits_job_timeout_and_recovers(self, registry,
                                                         compiled, key):
        """Satellite: an alive-but-stuck worker is treated as a crash once
        the per-job deadline passes — respawned, retried, never hung."""
        batch = request_batch(8, 32)
        with ShardPool(registry.root, 2, job_timeout=1.0,
                       stall_injection={key}) as pool:
            start = time.monotonic()
            outputs = pool.evaluate(key, batch)
            elapsed = time.monotonic() - start
            np.testing.assert_array_equal(outputs, compiled.evaluate(batch))
            stats = pool.stats()
            assert stats["timed_out_jobs"] >= 1
            assert stats["respawns"] >= 1
            assert pool.retried_jobs >= 1
            assert elapsed < FUTURE_TIMEOUT

    def test_wedged_worker_exhausts_retry_budget_cleanly(self, registry,
                                                         compiled, key):
        """With no retry budget a timeout fails the batch with a named
        error instead of hanging the caller."""
        # Wedge both workers' first service so the retry cannot dodge onto
        # a healthy worker.
        with ShardPool(registry.root, 1, max_retries=0, job_timeout=0.5,
                       stall_injection={key}) as pool:
            with pytest.raises(ServeError, match="max_retries=0"):
                pool.evaluate(key, request_batch(4, 32))
            assert pool.stats()["timed_out_jobs"] >= 1

    def test_job_deadlines_run_from_dispatch(self, registry, key):
        """Three wedged workers time out together, not one after another:
        each job's deadline is stamped when it is dispatched."""
        with ShardPool(registry.root, 3, max_retries=0, job_timeout=0.5,
                       stall_injection={key}) as pool:
            start = time.monotonic()
            with pytest.raises(ServeError, match="max_retries=0"):
                pool.evaluate(key, request_batch(6, 32))
            elapsed = time.monotonic() - start
            assert pool.stats()["timed_out_jobs"] == 3
        assert elapsed < 2 * 0.5

    def test_respawn_refused_after_close(self, registry):
        """Satellite: _respawn must refuse once the pool is closed — a lease
        holder racing close() must not spawn workers nobody will reap."""
        pool = ShardPool(registry.root, 1)
        pool.close()
        with pytest.raises(ServeError, match="refusing to respawn"):
            pool._respawn(0)

    def test_close_under_inflight_crash_retry_leaks_nothing(self, registry,
                                                            key):
        """Satellite: closing the pool while a lease holder is stuck in a
        crash-retry loop must end with a clean ServeError (never a hang) and
        zero surviving worker processes."""
        pool = ShardPool(registry.root, 1, job_timeout=0.5,
                         stall_injection={key})
        failures: list[BaseException] = []
        outcomes: list[np.ndarray] = []

        def drive() -> None:
            try:
                outcomes.append(pool.evaluate(key, request_batch(4, 32)))
            except BaseException as exc:   # noqa: BLE001
                failures.append(exc)

        thread = threading.Thread(target=drive)
        thread.start()
        time.sleep(0.1)                 # let the job wedge on the stall key
        pool.close(timeout=0.2)         # expire the lease wait: forces the
        thread.join(FUTURE_TIMEOUT)     # race close() guards against
        assert not thread.is_alive()
        # The evaluate either finished before close (retry won the race on a
        # respawned, stall-free worker) or failed with a named ServeError —
        # never a hang, never an unnamed crash.
        if failures:
            assert isinstance(failures[0], ServeError)
        else:
            assert len(outcomes) == 1
        for worker in pool._workers:
            assert not worker.process.is_alive()

    def test_concurrent_evaluates_lease_disjoint_workers(self, registry,
                                                         compiled, key):
        """Leasing: concurrent callers split the pool and stay bitwise-equal."""
        batches = [request_batch(11, 48, seed=s) for s in range(4)]
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []
        with ShardPool(registry.root, 2) as pool:
            pool.evaluate(key, batches[0][:2])   # warm caches

            def drive(index: int) -> None:
                try:
                    for _ in range(3):
                        results[index] = pool.evaluate(key, batches[index])
                except BaseException as exc:   # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert pool.stats()["free_workers"] == 2
        assert not errors
        for index, batch in enumerate(batches):
            np.testing.assert_array_equal(results[index],
                                          compiled.evaluate(batch))


# ------------------------------------------------------------------------- server
class TestServerValidation:
    @pytest.fixture()
    def server(self, registry):
        with ModelServer(registry, ServePolicy(max_batch=8, max_wait=1e-3)) as srv:
            yield srv

    def test_oversized_request_rejected_with_named_limit(self, registry, key):
        policy = ServePolicy(max_batch=8, max_wait=1e-3, max_request_samples=100)
        with ModelServer(registry, policy) as server:
            with pytest.raises(ServeError, match="max_request_samples=100"):
                server.submit(key, np.zeros(101))
            server.submit(key, np.full(100, 0.5)).result(FUTURE_TIMEOUT)

    def test_non_finite_request_rejected_before_batching(self, server, key):
        samples = np.full(16, 0.5)
        samples[5] = np.nan
        with pytest.raises(ServeError, match="non-finite sample at step 5"):
            server.submit(key, samples)

    def test_malformed_shapes_rejected(self, server, key):
        with pytest.raises(ServeError, match="1-D"):
            server.submit(key, np.zeros((2, 8)))
        with pytest.raises(ServeError, match="1-D"):
            server.submit(key, np.zeros(0))

    def test_unknown_key_rejected_at_submit(self, server):
        with pytest.raises(ServeError, match="unknown model key"):
            server.submit("f" * 64, np.full(8, 0.5))

    def test_unknown_key_rejected_on_every_submit(self, server):
        with server.telemetry.subscribe(topics=("RequestRejected",)) as sub:
            for _ in range(3):
                with pytest.raises(ServeError, match="unknown model key"):
                    server.submit("f" * 64, np.full(8, 0.5))
            reasons = [event.reason for event in sub.drain()]
        assert reasons == ["unknown_key"] * 3

    def test_admitted_key_removed_from_registry_serves_from_warm_cache(
            self, registry, compiled, key):
        """An admitted key is not looked up again: keys are content
        hashes, so the dispatcher cache still holds the very model."""
        row = np.full(16, 0.5)
        policy = ServePolicy(max_batch=4, max_wait=1e-3, n_workers=0)
        with ModelServer(registry, policy) as server:
            server.submit(key, row).result(FUTURE_TIMEOUT)
            registry.remove(key)
            assert key not in registry
            served = server.submit(key, row).result(FUTURE_TIMEOUT)
        np.testing.assert_array_equal(served, compiled.evaluate(row))

    def test_admitted_key_removed_without_cache_fails_its_batch_named(
            self, registry, key):
        row = np.full(16, 0.5)
        policy = ServePolicy(max_batch=4, max_wait=1e-3, n_workers=0,
                             cache_bytes=0)
        with ModelServer(registry, policy) as server:
            server.submit(key, row).result(FUTURE_TIMEOUT)
            registry.remove(key)
            future = server.submit(key, row)     # admitted: not looked up
            with pytest.raises(ServeError, match="batch evaluation failed"):
                future.result(FUTURE_TIMEOUT)
            assert server.stats().n_failed == 1

    def test_queue_depth_limit_named(self, registry, key):
        policy = ServePolicy(max_batch=1000, max_wait=60.0, max_queue_depth=2)
        with ModelServer(registry, policy) as server:
            server.submit(key, np.full(8, 0.5))
            server.submit(key, np.full(8, 0.5))
            with pytest.raises(ServeError, match="max_queue_depth=2"):
                server.submit(key, np.full(8, 0.5))
            server.flush()

    def test_submit_after_close_names_the_server(self, registry, key):
        """A post-close submit must raise, naming this server — never park a
        future that can't resolve."""
        server = ModelServer(registry, ServePolicy(max_batch=4, max_wait=1e-3))
        server.close()
        with pytest.raises(ServerClosedError) as excinfo:
            server.submit(key, np.full(8, 0.5))
        message = str(excinfo.value)
        assert "ModelServer(" in message and "is closed" in message
        assert str(registry.root) in message
        assert "never resolve" in message

    def test_close_resolves_pending_futures(self, registry, compiled, key):
        server = ModelServer(registry, ServePolicy(max_batch=1000, max_wait=60.0))
        row = np.full(16, 0.5)
        future = server.submit(key, row)     # parked: batch never fills
        server.close()
        np.testing.assert_array_equal(future.result(FUTURE_TIMEOUT),
                                      compiled.evaluate(row))


class TestServerBatching:
    def test_results_bitwise_equal_to_direct_evaluate(self, registry, compiled,
                                                      key):
        batch = request_batch(30, 64)
        policy = ServePolicy(max_batch=10, max_wait=5e-3)
        with ModelServer(registry, policy) as server:
            outputs = server.serve(key, batch)
        np.testing.assert_array_equal(outputs, compiled.evaluate(batch))

    def test_full_batches_coalesce(self, registry, key):
        batch = request_batch(12, 32)
        with ModelServer(registry, ServePolicy(max_batch=12, max_wait=60.0)) as server:
            futures = [server.submit(key, row) for row in batch]
            for future in futures:
                future.result(FUTURE_TIMEOUT)
            stats = server.stats()
        assert stats.n_batches == 1
        assert stats.mean_batch_size == pytest.approx(12.0)
        assert stats.n_completed == 12 and stats.n_failed == 0

    def test_partial_batch_flushed_by_deadline(self, registry, compiled, key):
        row = np.full(24, 0.5)
        with ModelServer(registry, ServePolicy(max_batch=1000, max_wait=0.02)) as server:
            start = time.monotonic()
            future = server.submit(key, row)
            result = future.result(FUTURE_TIMEOUT)
            elapsed = time.monotonic() - start
        np.testing.assert_array_equal(result, compiled.evaluate(row))
        assert elapsed >= 0.02               # waited out the coalescing window
        stats_batch = server.stats()
        assert stats_batch.queue_latency.max >= 0.02

    def test_busy_lane_backlog_leaves_as_one_full_batch(self, registry,
                                                        compiled, key):
        """Bursts arriving while the only lane is stalled leave together as
        one full batch, each request still released within max_wait."""
        max_wait = 1e-3
        policy = ServePolicy(max_batch=12, max_wait=max_wait, n_workers=1)
        rows = request_batch(13, 32)
        with ModelServer(registry, policy, delay_injection=0.2) as server:
            futures = [server.submit(key, rows[0])]    # occupies the lane
            wait_until_taken(server, key)
            for burst in range(3):
                futures += [server.submit(key, row)
                            for row in rows[1 + 4 * burst:5 + 4 * burst]]
                time.sleep(0.01)
            outputs = np.vstack([f.result(FUTURE_TIMEOUT) for f in futures])
            stats = server.stats()
        np.testing.assert_array_equal(outputs, compiled.evaluate(rows))
        assert stats.n_batches == 2
        assert stats.per_model[key].n_rows == 13
        # Deadline stamps carry float rounding (a few ulp past max_wait).
        longest = stats.queue_latency.max
        assert longest < max_wait or longest == pytest.approx(max_wait)

    def test_mixed_lengths_form_separate_batches(self, registry, compiled, key):
        short, long = np.full(16, 0.4), np.full(32, 0.6)
        with ModelServer(registry, ServePolicy(max_batch=2, max_wait=60.0)) as server:
            futures = [server.submit(key, short), server.submit(key, long),
                       server.submit(key, short), server.submit(key, long)]
            results = [f.result(FUTURE_TIMEOUT) for f in futures]
            assert server.stats().n_batches == 2
        np.testing.assert_array_equal(results[0], compiled.evaluate(short))
        np.testing.assert_array_equal(results[1], compiled.evaluate(long))

    def test_stats_describe_smoke(self, registry, key):
        with ModelServer(registry, ServePolicy(max_batch=2, max_wait=1e-3)) as server:
            server.serve(key, request_batch(4, 16))
            described = server.stats().describe()
        assert "request" in described and "batch" in described

    def test_cache_eviction_under_byte_budget(self, compiled, tmp_path):
        """Two models, budget for one: serving alternates loads + evictions."""
        registry = ModelRegistry(tmp_path / "models")
        other = compile_model(small_model(tau=2.0), dt=1e-9,
                              input_range=(0.0, 1.0))
        key_a, key_b = registry.save(compiled), registry.save(other)
        assert key_a != key_b
        policy = ServePolicy(max_batch=4, max_wait=1e-3,
                             cache_bytes=int(compiled.nbytes * 1.5))
        with ModelServer(registry, policy) as server:
            for _ in range(2):
                out_a = server.serve(key_a, request_batch(4, 32))
                out_b = server.serve(key_b, request_batch(4, 32))
            stats = server.stats()
        np.testing.assert_array_equal(out_a, compiled.evaluate(request_batch(4, 32)))
        np.testing.assert_array_equal(out_b, other.evaluate(request_batch(4, 32)))
        assert stats.cache["evictions"] >= 2     # models displaced each other
        assert stats.cache["misses"] >= 3        # ... and were re-loaded


class TestServerSharded:
    def test_sharded_bitwise_equal_to_direct_evaluate(self, registry, compiled,
                                                      key):
        batch = request_batch(40, 64)
        policy = ServePolicy(max_batch=20, max_wait=5e-3, n_workers=2)
        with ModelServer(registry, policy) as server:
            outputs = server.serve(key, batch)
            assert server.stats().pool["n_workers"] == 2
        np.testing.assert_array_equal(outputs, compiled.evaluate(batch))

    def test_worker_crash_mid_batch_is_transparent_to_callers(self, registry,
                                                              compiled, key):
        """Acceptance: kill a worker mid-batch; every future still resolves."""
        batch = request_batch(10, 32)
        policy = ServePolicy(max_batch=10, max_wait=60.0, n_workers=2)
        with ModelServer(registry, policy, fault_injection={key}) as server:
            futures = [server.submit(key, row) for row in batch]
            results = np.vstack([f.result(FUTURE_TIMEOUT) for f in futures])
            stats = server.stats()
        np.testing.assert_array_equal(results, compiled.evaluate(batch))
        assert stats.pool["respawns"] >= 1
        assert stats.n_failed == 0

    def test_exhausted_retries_fail_futures_cleanly(self, registry, key):
        policy = ServePolicy(max_batch=4, max_wait=60.0, n_workers=2,
                             max_retries=0)
        with ModelServer(registry, policy, fault_injection={key}) as server:
            futures = [server.submit(key, np.full(16, 0.5)) for _ in range(4)]
            for future in futures:
                with pytest.raises(ServeError, match="max_retries=0"):
                    future.result(FUTURE_TIMEOUT)
            assert server.stats().n_failed == 4


class TestDispatchLanes:
    def multi_registry(self, compiled, tmp_path, n_models=3):
        registry = ModelRegistry(tmp_path / "models-lanes")
        keys = [registry.save(compiled)]
        for tau in (2.0, 3.0)[:n_models - 1]:
            keys.append(registry.save(compile_model(
                small_model(tau=tau), dt=1e-9, input_range=(0.0, 1.0))))
        return registry, keys

    def test_each_model_pinned_to_its_own_lane(self, compiled, tmp_path):
        registry, keys = self.multi_registry(compiled, tmp_path)
        policy = ServePolicy(max_batch=4, max_wait=1e-3, n_lanes=3)
        batch = request_batch(8, 32)
        with ModelServer(registry, policy) as server:
            outputs = {key: server.serve(key, batch) for key in keys}
            stats = server.stats()
        assert stats.n_lanes == 3
        lanes = {key: stats.per_model[key].lane for key in keys}
        assert sorted(lanes.values()) == [0, 1, 2]
        models = {keys[0]: compiled}
        for key in keys:
            expected = models.get(key)
            if expected is None:
                expected = registry.load(key)
            np.testing.assert_array_equal(outputs[key],
                                          expected.evaluate(batch))

    def test_more_models_than_lanes_share_least_loaded(self, compiled,
                                                       tmp_path):
        registry, keys = self.multi_registry(compiled, tmp_path)
        policy = ServePolicy(max_batch=4, max_wait=1e-3, n_lanes=2)
        with ModelServer(registry, policy) as server:
            for key in keys:
                server.serve(key, request_batch(4, 16))
            stats = server.stats()
        lanes = [stats.per_model[key].lane for key in keys]
        assert sorted(set(lanes)) == [0, 1]      # both lanes used, none idle
        assert stats.n_lanes == 2

    def test_server_latency_is_the_merge_of_its_models(self, compiled,
                                                       tmp_path):
        registry, keys = self.multi_registry(compiled, tmp_path, n_models=2)
        policy = ServePolicy(max_batch=4, max_wait=1e-3, n_lanes=2)
        with ModelServer(registry, policy) as server:
            for key in keys:
                server.serve(key, request_batch(6, 16))
            stats = server.stats()
        for name in ("queue_latency", "e2e_latency"):
            per_model = [getattr(m, name) for m in stats.per_model.values()]
            assert [summary.count for summary in per_model] == [6, 6]
            assert getattr(stats, name) == LatencySummary.merge(per_model)
            assert getattr(stats, name).count == 12

    def test_single_lane_serialises_all_models(self, compiled, tmp_path):
        registry, keys = self.multi_registry(compiled, tmp_path)
        policy = ServePolicy(max_batch=4, max_wait=1e-3, n_lanes=1)
        batch = request_batch(8, 24)
        with ModelServer(registry, policy) as server:
            outputs = {key: server.serve(key, batch) for key in keys}
            stats = server.stats()
        assert stats.n_lanes == 1
        assert all(model.lane == 0 for model in stats.per_model.values())
        np.testing.assert_array_equal(outputs[keys[0]],
                                      compiled.evaluate(batch))

    def test_keys_sharing_a_lane_are_served_oldest_ready_first(
            self, compiled, tmp_path):
        """One lane, two models: when the lane frees it takes the FIFO
        whose oldest request is oldest, not the one it happens to list
        first."""
        registry, keys = self.multi_registry(compiled, tmp_path, n_models=2)
        policy = ServePolicy(max_batch=2, max_wait=1e-3, n_lanes=1,
                             n_workers=1)
        order: list[str] = []
        futures = []

        def submit(key: str) -> None:
            future = server.submit(key, np.full(16, 0.5))
            future.add_done_callback(lambda _, key=key: order.append(key))
            futures.append(future)
            time.sleep(3e-3)

        with ModelServer(registry, policy, delay_injection=0.2) as server:
            submit(keys[0])                  # occupies the lane
            wait_until_taken(server, keys[0])
            # keys[0]'s FIFO is listed first, but after its first batch of
            # two leaves, keys[1]'s request is the oldest one pending.
            for key in (keys[0], keys[0], keys[1], keys[0]):
                submit(key)
            for future in futures:
                future.result(FUTURE_TIMEOUT)
            stats = server.stats()
        assert order == [keys[0], keys[0], keys[0], keys[1], keys[0]]
        assert stats.n_batches == 4

    def test_lanes_overlap_with_sharded_pool(self, compiled, tmp_path):
        """Two models, two lanes, two workers: bitwise-equal under overlap."""
        registry, keys = self.multi_registry(compiled, tmp_path, n_models=2)
        policy = ServePolicy(max_batch=8, max_wait=2e-3, n_lanes=2,
                             n_workers=2)
        rows = request_batch(32, 48)
        with ModelServer(registry, policy) as server:
            futures = [server.submit(keys[i % 2], rows[i]) for i in range(32)]
            outputs = [future.result(FUTURE_TIMEOUT) for future in futures]
            stats = server.stats()
        other = registry.load(keys[1])
        for i, output in enumerate(outputs):
            expected = compiled if i % 2 == 0 else other
            np.testing.assert_array_equal(output, expected.evaluate(rows[i]))
        assert {model.lane for model in stats.per_model.values()} == {0, 1}
        assert stats.n_failed == 0

    def test_concurrent_submitters_and_lanes_lose_no_request(self, compiled,
                                                            tmp_path):
        """Stress: more submitting threads than cores, three models on two
        lanes (one shared), a short switch interval.  Every request is taken
        exactly once and answered bitwise-equal; no count drifts."""
        registry, keys = self.multi_registry(compiled, tmp_path)
        models = {key: registry.load(key) for key in keys}
        policy = ServePolicy(max_batch=8, max_wait=1e-3, n_lanes=2)
        n_threads, n_each = 4, 60
        results: dict[tuple[int, int], tuple] = {}
        errors: list[BaseException] = []

        def drive(thread: int) -> None:
            rng = np.random.default_rng(thread)
            try:
                for i in range(n_each):
                    key = keys[(thread + i) % len(keys)]
                    row = 0.5 + 0.3 * rng.standard_normal(16 + 8 * (i % 2))
                    results[thread, i] = (key, row, server.submit(key, row))
            except BaseException as exc:   # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ModelServer(registry, policy) as server:
                threads = [threading.Thread(target=drive, args=(t,))
                           for t in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(FUTURE_TIMEOUT)
                assert not any(thread.is_alive() for thread in threads)
                for key, row, future in results.values():
                    np.testing.assert_array_equal(
                        future.result(FUTURE_TIMEOUT),
                        models[key].evaluate(row))
                stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        assert not errors and len(results) == n_threads * n_each
        assert stats.n_completed == n_threads * n_each and stats.n_pending == 0
        assert sum(m.n_rows for m in stats.per_model.values()) == \
            n_threads * n_each
        assert all(m.n_coalescing == 0 for m in stats.per_model.values())
        assert stats.mean_batch_size <= policy.max_batch

    def test_one_lanes_failure_leaves_other_models_serving(self, compiled,
                                                           tmp_path):
        """Exhausted retries on one model fail its requests only; the other
        lane keeps serving."""
        registry, keys = self.multi_registry(compiled, tmp_path, n_models=2)
        policy = ServePolicy(max_batch=4, max_wait=60.0, n_lanes=2,
                             n_workers=2, max_retries=0)
        with ModelServer(registry, policy,
                         fault_injection={keys[1]}) as server:
            doomed = [server.submit(keys[1], np.full(16, 0.5))
                      for _ in range(4)]
            for future in doomed:
                with pytest.raises(ServeError, match="max_retries=0"):
                    future.result(FUTURE_TIMEOUT)
            good = server.serve(keys[0], request_batch(4, 16))
            stats = server.stats()
        np.testing.assert_array_equal(good,
                                      compiled.evaluate(request_batch(4, 16)))
        assert stats.per_model[keys[1]].n_failed == 4
        assert stats.per_model[keys[0]].n_failed == 0
        assert stats.per_model[keys[0]].n_completed == 4


class TestServeStatsSafety:
    def test_fresh_server_stats_are_nan_safe(self, registry):
        """Querying a server before its first batch must not trip."""
        with ModelServer(registry, ServePolicy(max_batch=4,
                                               max_wait=1e-3)) as server:
            stats = server.stats()
        assert stats.n_batches == 0 and stats.mean_batch_size == 0.0
        for summary in (stats.queue_latency, stats.e2e_latency):
            assert summary.count == 0
            for value in (summary.mean, summary.p50, summary.p99, summary.max):
                assert value == 0.0 and np.isfinite(value)
            assert summary.percentile(99.9) == 0.0
        described = stats.describe()
        assert "0 batch(es)" in described and "nan" not in described.lower()
        payload = stats.as_dict()
        assert payload["per_model"] == {} and payload["n_lanes"] == 1

    def test_latency_summary_ignores_non_finite_samples(self):
        summary = LatencySummary.of([np.nan, 1.0, np.inf, 3.0])
        assert summary.count == 2
        assert summary.p50 == pytest.approx(2.0)
        assert np.isfinite(summary.p99)
        empty = LatencySummary.of([np.nan, np.inf])
        assert empty.count == 0 and empty.p99 == 0.0

    def test_percentile_helper_interpolates(self):
        summary = LatencySummary.of(np.linspace(0.0, 1.0, 101))
        assert summary.percentile(50.0) == pytest.approx(summary.p50)
        assert summary.percentile(99.0) == pytest.approx(summary.p99)
        assert summary.percentile(100.0) == pytest.approx(summary.max)
        assert summary.percentile(70.0) == pytest.approx(0.7, rel=ALPHA)

    def test_low_percentiles_use_true_minimum(self):
        """Satellite: q < 50 must interpolate from the window min, not
        collapse onto ~p50 (the old lowest knot was min(p50, max))."""
        summary = LatencySummary.of(np.linspace(2.0, 4.0, 101))
        assert summary.min == pytest.approx(2.0)
        assert summary.percentile(0.0) == pytest.approx(2.0)
        assert summary.percentile(10.0) == pytest.approx(2.2, abs=0.05)
        assert summary.percentile(25.0) == pytest.approx(2.5, abs=0.05)
        # Regression shape: the old code answered ~p50 (3.0) for q=10.
        assert summary.percentile(10.0) < 0.9 * summary.p50
        assert summary.as_dict()["min_s"] == summary.min

    def test_empty_summary_min_is_zero_safe(self):
        empty = LatencySummary.of([])
        assert empty.min == 0.0
        assert empty.percentile(0.0) == 0.0
        assert empty.as_dict()["min_s"] == 0.0

    def test_per_model_describe_breakdown(self, registry, key):
        with ModelServer(registry, ServePolicy(max_batch=4,
                                               max_wait=1e-3)) as server:
            server.serve(key, request_batch(4, 16))
            stats = server.stats()
        model = stats.per_model[key]
        assert model.n_completed == 4 and model.lane == 0
        assert model.key == key
        line = model.describe()
        assert key[:12] in line and "lane 0" in line
        assert key[:12] in stats.describe()
        assert key[:12] not in stats.describe(per_model=False)


class TestServePolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"max_wait": -1.0},
        {"max_request_samples": 0},
        {"max_queue_depth": 0},
        {"n_workers": -1},
        {"n_lanes": 0},
        {"max_connections": 0},
        {"max_inflight_per_conn": 0},
        {"max_frame_bytes": 8},
        {"max_retries": -1},
        {"segment_bytes": -1},
        {"job_timeout": -1.0},
        {"cache_bytes": -1},
    ])
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(ServeError):
            ServePolicy(**kwargs).validate()

    def test_segment_holds_one_admitted_row_in_and_out(self):
        ServePolicy(segment_bytes=1600, max_request_samples=100).validate()
        with pytest.raises(ServeError, match="16 \\* 100 bytes"):
            ServePolicy(segment_bytes=1599, max_request_samples=100).validate()
