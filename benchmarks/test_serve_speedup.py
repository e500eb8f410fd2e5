"""Acceptance benchmark of the serving layer (:mod:`repro.serve`).

The serving claim on top of the compiled runtime: a load of >= 1000
*individual* stimulus requests against the paper's buffer model must flow
through the sharded micro-batching server at least **2x faster** than the
single-process status quo of serving each request as its own ``evaluate``
call — while answering every request with outputs bitwise-equal to a direct
single-process evaluation, and adding at most ``max_wait`` of p50 batching
latency.

Two comparisons are recorded (the first is the gate):

* ``server vs per-request single process`` — the request-serving baseline:
  no coalescing, no sharding, one synchronous ``evaluate`` per request on
  one process.  This is what a deployment without :mod:`repro.serve` does
  for request traffic, and what micro-batching + sharding must beat 2x.
* ``shard pool vs one whole-batch call`` — isolates the sharding component
  on an already-coalesced batch.  With the shared-memory dataplane (rows and
  results travel through per-worker segments; the pipes carry descriptors
  only) this is **gated at 1.5x** of the single in-process call even on one
  core — the ROADMAP target the old pickle-over-pipe transport missed by ~4x.
  On multi-core runners the pool should win outright.

Run directly for a report::

    python -m pytest benchmarks/test_serve_speedup.py -q -s
"""

import os
import tempfile
import time

import numpy as np
import pytest

from repro.runtime import ModelRegistry, compile_model
from repro.serve import ModelServer, ServePolicy, ShardPool

from .artifacts import record_benchmark

#: Request count of the serving load (acceptance: >= 1000).
N_REQUESTS = 1200
#: Samples per request (the runtime benchmark's serving grid).
N_STEPS = 256
#: Per-request evaluations actually timed for the baseline estimate; the
#: full-load baseline cost is scaled from their mean (they are identical
#: amounts of work — this is the same sampling the runtime benchmark uses
#: for its engine reference).
N_BASELINE = 200
#: Serving policy under test.  The batch size is chosen so a batch *fills*
#: well inside ``max_wait`` at realistic submission rates (batching latency
#: is then fill-bound, not deadline-bound), and the wait bound leaves room
#: for the multi-ms GIL scheduling jitter a single-core runner exhibits.
POLICY = ServePolicy(max_batch=64, max_wait=10e-3, n_workers=2)


class TestShardedMicroBatchServing:
    def test_server_at_least_2x_faster_than_per_request_serving(self, capsys,
                                                                rvf_extraction):
        model = rvf_extraction.model
        tft = rvf_extraction.tft
        dt = 1.0 / (2e6 * 150)
        states = tft.state_axis()
        lo, hi = float(states.min()), float(states.max())
        compiled = compile_model(model, dt=dt, input_range=(lo, hi))
        registry = ModelRegistry(tempfile.mkdtemp(prefix="serve-bench-"))
        key = registry.save(compiled)

        # Load generator: randomised in-excursion sine stimuli (fixed seed).
        rng = np.random.default_rng(0)
        offset = 0.5 * (lo + hi)
        amps = rng.uniform(0.2, 0.45 * (hi - lo), N_REQUESTS)
        freqs = rng.uniform(1e6, 4e6, N_REQUESTS)
        phases = rng.uniform(0.0, 2.0 * np.pi, N_REQUESTS)
        times = compiled.time_axis(N_STEPS)
        stimuli = offset + amps[:, None] * np.sin(
            2.0 * np.pi * freqs[:, None] * times[None, :] + phases[:, None])
        direct = compiled.evaluate(stimuli)          # ground truth (and warm-up)

        # Baseline: single-process, one evaluate call per request, scaled.
        for row in stimuli[:4]:
            compiled.evaluate(row)                   # warm-up
        start = time.perf_counter()
        for row in stimuli[:N_BASELINE]:
            compiled.evaluate(row)
        per_request = (time.perf_counter() - start) / N_BASELINE
        baseline_seconds = per_request * N_REQUESTS

        # Shard-pool component on one already-coalesced batch (gated below).
        with ShardPool(registry.root, POLICY.n_workers,
                       segment_bytes=POLICY.segment_bytes) as pool:
            # Warm-up at full size: the first full batch faults the shared
            # segments' pages in (a one-time cold-start cost); the gate
            # targets the steady-state transport overhead.
            pool.evaluate(key, stimuli)
            start = time.perf_counter()
            sharded = pool.evaluate(key, stimuli)
            pool_seconds = time.perf_counter() - start
            pool_stats = pool.stats()
        np.testing.assert_array_equal(sharded, direct)
        start = time.perf_counter()
        compiled.evaluate(stimuli)
        single_batch_seconds = time.perf_counter() - start

        # The server under test: individual submissions, per-request futures.
        with ModelServer(registry, POLICY) as server:
            warm = [server.submit(key, row) for row in stimuli[:8]]
            for future in warm:
                future.result(60.0)
            start = time.perf_counter()
            futures = [server.submit(key, row) for row in stimuli]
            served = np.vstack([future.result(60.0) for future in futures])
            server_seconds = time.perf_counter() - start
            stats = server.stats()

        speedup = baseline_seconds / server_seconds
        throughput = N_REQUESTS / server_seconds
        queue_p50 = stats.queue_latency.p50
        with capsys.disabled():
            print(f"\n[serve] {N_REQUESTS} requests x {N_STEPS} steps: "
                  f"per-request baseline {per_request * 1e3:.2f} ms/req -> "
                  f"est. {baseline_seconds:.2f} s; server "
                  f"{server_seconds * 1e3:.0f} ms ({throughput:.0f} req/s, "
                  f"{speedup:.1f}x, queue p50 {queue_p50 * 1e3:.2f} ms); "
                  f"shard pool on a coalesced batch "
                  f"{pool_seconds * 1e3:.0f} ms vs single call "
                  f"{single_batch_seconds * 1e3:.0f} ms on "
                  f"{os.cpu_count()} core(s)")

        record_benchmark("BENCH_serve.json", "sharded_microbatch_serving", {
            "n_requests": N_REQUESTS,
            "n_steps": N_STEPS,
            "policy": {"max_batch": POLICY.max_batch,
                       "max_wait_s": POLICY.max_wait,
                       "n_workers": POLICY.n_workers},
            "cpu_count": os.cpu_count(),
            "baseline_ms_per_request": per_request * 1e3,
            "baseline_s_estimated": baseline_seconds,
            "server_s": server_seconds,
            "server_requests_per_s": throughput,
            "speedup_vs_per_request": speedup,
            "queue_latency_p50_ms": queue_p50 * 1e3,
            "queue_latency_p99_ms": stats.queue_latency.p99 * 1e3,
            "e2e_latency_p50_ms": stats.e2e_latency.p50 * 1e3,
            "n_batches": stats.n_batches,
            "mean_batch_size": stats.mean_batch_size,
            "pool": stats.pool,
            "shardpool_coalesced_batch_ms": pool_seconds * 1e3,
            "single_call_coalesced_batch_ms": single_batch_seconds * 1e3,
            "shardpool_vs_single_call": pool_seconds / single_batch_seconds,
            "transport": "shared_memory",
            "segment_bytes": pool_stats["segment_bytes"],
        })

        # Gate 1: every request answered bitwise-identically to a direct
        # single-process evaluation of the same rows.
        np.testing.assert_array_equal(served, direct)
        # Gate 2: micro-batching + sharding beats per-request serving >= 2x.
        assert speedup >= 2.0, (
            f"serving layer only {speedup:.2f}x faster than per-request "
            f"single-process serving")
        # Gate 3: the batching policy held its latency bound at the median.
        assert queue_p50 <= POLICY.max_wait, (
            f"p50 batching latency {queue_p50 * 1e3:.2f} ms exceeds "
            f"max_wait {POLICY.max_wait * 1e3:.2f} ms")
        assert stats.n_failed == 0
        # Gate 4 (ROADMAP dataplane target): the shard pool's coalesced
        # batch stays within 1.5x of the single in-process call even on one
        # core — the shared segments reduce IPC to descriptor pickles.
        assert pool_seconds <= 1.5 * single_batch_seconds, (
            f"shard pool took {pool_seconds * 1e3:.0f} ms on a coalesced "
            f"batch vs {single_batch_seconds * 1e3:.0f} ms in-process "
            f"({pool_seconds / single_batch_seconds:.2f}x > 1.5x) on "
            f"{os.cpu_count()} core(s)")


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
