"""Acceptance benchmark of the gateway + per-model dispatch lanes.

The claim under test: with **per-model dispatch lanes**
(``ServePolicy.n_lanes > 1``), batches for different models execute
concurrently — each lane leasing its own shard workers — so interleaved
multi-model traffic flows at least **2x faster** than through the original
single-lane dispatcher (``n_lanes=1``), which executes one batch at a time
globally.  Every served row must stay bitwise-equal to a single-process
``CompiledModel.evaluate`` of the same stimulus.

Two sections are recorded into ``BENCH_gateway.json``:

* ``gateway_two_model_lanes`` — the headline: interleaved 2-model traffic
  submitted by a remote :class:`~repro.gateway.client.GatewayClient` through
  a live TCP socket, multi-lane vs single-lane server (identical load,
  identical pool).  The gate rests on a premise: that a shard job costs
  about the same whatever its row count, so sharding one batch saves little
  while overlapping two models' batches halves the wall clock.  It holds
  only in part: a job's kernel time grows with its rows (a 32-row x 768-step
  job runs in several cache-sized tiles), so from the kernel alone the
  gate's two schedules (one lane: 32 waves of two 16-row jobs; two lanes:
  16 pairs of 32-row jobs side by side) differ by ``kernel_only_ratio`` =
  2·t16 / t32, the median in-kernel time (``eval_s``) of 16-row and 32-row
  x ``N_STEPS`` jobs timed in the benchmark process.  The rest of the 2x
  has to come from the per-wave dispatch overhead, which one lane pays twice
  as often.  The section records the ratio beside the measured speed-up.
  The >= 2x gate applies where the overlap is physically possible,
  i.e. with at least 2 CPU cores (CI runners have several); on a 1-core
  machine the comparison is recorded and gated only against regression.
* ``lanes_hide_worker_latency`` — the latency-hiding claim from the ROADMAP
  ("overlapping execution of batches for different models would hide shard
  latency"), gated >= 2x on ANY machine: 4-model traffic against a pool
  whose workers carry an injected 25 ms per-job stall (the stand-in for
  remote-shard / storage latency).  Lanes overlap the stalls; the
  single-lane dispatcher serialises them.

Run directly for a report::

    python -m pytest benchmarks/test_gateway_speedup.py -q -s
"""

import os
import statistics
import tempfile
import time

import numpy as np
import pytest

from repro.gateway import Gateway, GatewayClient
from repro.runtime import ModelRegistry, compile_model, evaluate_batch
from repro.rvf.hammerstein import HammersteinBranch, HammersteinModel
from repro.rvf.residues import PartialFractionFunction
from repro.serve import ModelServer, ServePolicy

from .artifacts import record_benchmark

#: Interleaved requests in the 2-model TCP load (acceptance: >= 1000).
N_REQUESTS = 1024
#: Samples per request, chosen so that the compiled kernel's per-step loop
#: would dominate each shard's cost.  A job's kernel time still grows with
#: its rows, so from the kernel alone two lanes gain ``kernel_only_ratio``,
#: not 2x (see the module docstring).
N_STEPS = 768
#: Rows per coalesced batch (small on purpose, see N_STEPS).
MAX_BATCH = 32
#: Injected per-job worker stall for the latency-hiding section.
WORKER_DELAY_S = 0.025
#: Requests in the latency-hiding load (4 models interleaved).
N_DELAY_REQUESTS = 256
#: Timed calls per job size for ``kernel_only_ratio``.
N_KERNEL_CALLS = 21


def _model(tau: float) -> HammersteinModel:
    """A small synthetic Hammerstein model (compiles in microseconds)."""
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


def _registry(n_models: int):
    registry = ModelRegistry(tempfile.mkdtemp(prefix="gateway-bench-"))
    compiled, keys = [], []
    for i in range(n_models):
        model = compile_model(_model(tau=1.0 + 0.5 * i), dt=1e-9,
                              input_range=(0.0, 1.0))
        compiled.append(model)
        keys.append(registry.save(model))
    return registry, compiled, keys


def _stimuli(n_requests: int, n_steps: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.5 + 0.3 * rng.uniform(-1.0, 1.0, (n_requests, n_steps))


def _kernel_only(model, stimuli: np.ndarray) -> dict:
    """Median in-kernel ``eval_s`` of the lanes gate's two job sizes.

    One lane runs waves of two ``MAX_BATCH // 2``-row jobs; two lanes run
    ``MAX_BATCH``-row jobs side by side, so from the kernel alone two lanes
    reach ``2 * t16 / t32`` (calls alternate between the sizes).
    """
    jobs = {"t16_ms": stimuli[:MAX_BATCH // 2], "t32_ms": stimuli[:MAX_BATCH]}
    for rows in jobs.values():
        evaluate_batch(model, rows)                 # warm-up (allocations)
    seconds = {name: [] for name in jobs}
    for call in range(N_KERNEL_CALLS):
        names = list(jobs) if call % 2 == 0 else list(jobs)[::-1]
        for name in names:
            timings: dict = {}
            evaluate_batch(model, jobs[name], timings=timings)
            seconds[name].append(timings["eval_s"])
    kernel = {name: statistics.median(values) * 1e3
              for name, values in seconds.items()}
    kernel["kernel_only_ratio"] = 2.0 * kernel["t16_ms"] / kernel["t32_ms"]
    return kernel


def _drive_gateway(registry, policy, requests, delay_injection=0.0):
    """Serve one request load through a fresh server+gateway; returns
    ``(outputs, seconds, server_stats)``."""
    with ModelServer(registry, policy,
                     delay_injection=delay_injection) as server:
        with Gateway(server) as gateway:
            with GatewayClient(*gateway.address, timeout=600.0) as client:
                client.submit_many(requests[:8])        # warm caches/workers
                start = time.perf_counter()
                outputs = client.submit_many(requests)
                seconds = time.perf_counter() - start
        stats = server.stats()
    return outputs, seconds, stats


class TestPerModelDispatchLanes:
    def test_two_model_traffic_through_tcp_gateway(self, capsys):
        registry, compiled, keys = _registry(2)
        stimuli = _stimuli(N_REQUESTS, N_STEPS)
        requests = [(keys[i % 2], stimuli[i]) for i in range(N_REQUESTS)]
        direct = [compiled[i % 2].evaluate(stimuli[i])
                  for i in range(N_REQUESTS)]

        def policy(n_lanes):
            return ServePolicy(max_batch=MAX_BATCH, max_wait=20e-3,
                               n_workers=2, n_lanes=n_lanes)

        multi_out, multi_s, multi_stats = _drive_gateway(
            registry, policy(n_lanes=2), requests)
        single_out, single_s, single_stats = _drive_gateway(
            registry, policy(n_lanes=1), requests)

        speedup = single_s / multi_s
        cores = os.cpu_count() or 1
        kernel = _kernel_only(compiled[0], stimuli)
        with capsys.disabled():
            print(f"\n[gateway] {N_REQUESTS} interleaved requests x "
                  f"{N_STEPS} steps, 2 models over TCP: single-lane "
                  f"{single_s * 1e3:.0f} ms, 2 lanes {multi_s * 1e3:.0f} ms "
                  f"({speedup:.2f}x, {N_REQUESTS / multi_s:.0f} req/s) on "
                  f"{cores} core(s); kernel alone "
                  f"{kernel['kernel_only_ratio']:.2f}x (16 rows "
                  f"{kernel['t16_ms']:.2f} ms, 32 rows "
                  f"{kernel['t32_ms']:.2f} ms)")

        record_benchmark("BENCH_gateway.json", "gateway_two_model_lanes", {
            "n_requests": N_REQUESTS,
            "n_steps": N_STEPS,
            "n_models": 2,
            "cpu_count": cores,
            "policy": {"max_batch": MAX_BATCH, "n_workers": 2},
            "single_lane_s": single_s,
            "multi_lane_s": multi_s,
            "speedup": speedup,
            "multi_lane_requests_per_s": N_REQUESTS / multi_s,
            "gate_2x_applied": cores >= 2,
            "multi_lane_batches": multi_stats.n_batches,
            "single_lane_batches": single_stats.n_batches,
            **kernel,
        })

        # Gate 1 (always): every remote-served row bitwise-equal to a direct
        # single-process evaluation, in both configurations.
        for i in range(N_REQUESTS):
            np.testing.assert_array_equal(multi_out[i], direct[i])
            np.testing.assert_array_equal(single_out[i], direct[i])
        assert multi_stats.n_failed == 0 and single_stats.n_failed == 0
        # Gate 2: lanes actually separated the models.
        lanes = {stats.lane for stats in multi_stats.per_model.values()}
        assert lanes == {0, 1}
        # Gate 3: >= 2x where two batches can physically run at once; a
        # 1-core machine cannot overlap compute, so it gates no-regression
        # (the CI runners this project gates on have several cores).
        if cores >= 2:
            assert speedup >= 2.0, (
                f"2-model traffic only {speedup:.2f}x faster with dispatch "
                f"lanes than through the single-lane dispatcher")
        else:
            assert speedup >= 0.8, (
                f"dispatch lanes regressed single-core throughput "
                f"({speedup:.2f}x)")

    def test_lanes_hide_injected_worker_latency(self, capsys):
        """>= 2x on any machine: overlapped stalls vs serialised stalls."""
        n_models = 4
        registry, compiled, keys = _registry(n_models)
        stimuli = _stimuli(N_DELAY_REQUESTS, 96, seed=1)
        requests = [(keys[i % n_models], stimuli[i])
                    for i in range(N_DELAY_REQUESTS)]
        direct = [compiled[i % n_models].evaluate(stimuli[i])
                  for i in range(N_DELAY_REQUESTS)]

        def policy(n_lanes):
            return ServePolicy(max_batch=MAX_BATCH, max_wait=10e-3,
                               n_workers=n_models, n_lanes=n_lanes)

        multi_out, multi_s, multi_stats = _drive_gateway(
            registry, policy(n_lanes=n_models), requests,
            delay_injection=WORKER_DELAY_S)
        single_out, single_s, single_stats = _drive_gateway(
            registry, policy(n_lanes=1), requests,
            delay_injection=WORKER_DELAY_S)

        speedup = single_s / multi_s
        with capsys.disabled():
            print(f"[gateway] latency hiding: {N_DELAY_REQUESTS} requests, "
                  f"{n_models} models, {WORKER_DELAY_S * 1e3:.0f} ms/job "
                  f"worker stall: single-lane {single_s * 1e3:.0f} ms, "
                  f"{n_models} lanes {multi_s * 1e3:.0f} ms "
                  f"({speedup:.2f}x)")

        record_benchmark("BENCH_gateway.json", "lanes_hide_worker_latency", {
            "n_requests": N_DELAY_REQUESTS,
            "n_models": n_models,
            "worker_delay_ms": WORKER_DELAY_S * 1e3,
            "cpu_count": os.cpu_count(),
            "single_lane_s": single_s,
            "multi_lane_s": multi_s,
            "speedup": speedup,
        })

        for i in range(N_DELAY_REQUESTS):
            np.testing.assert_array_equal(multi_out[i], direct[i])
            np.testing.assert_array_equal(single_out[i], direct[i])
        assert multi_stats.n_failed == 0 and single_stats.n_failed == 0
        assert speedup >= 2.0, (
            f"dispatch lanes hid only {speedup:.2f}x of the injected worker "
            "latency under 4-model traffic (expected >= 2x)")


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
