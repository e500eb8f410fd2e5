"""Serving cluster: submit -> micro-batch -> shard -> respond.

``examples/runtime_serving.py`` showed the *batch* side of the compiled
runtime: one process, one pre-assembled ``(n_stimuli, n_steps)`` array.  This
example shows the *traffic* side with :mod:`repro.serve` — requests arrive
one stimulus at a time, for more than one model, and the server does the
batching:

1. extract and compile **two** models of one circuit family (an RC ladder at
   two ladder depths), registered in a content-hash-keyed registry (a
   directory of ``<key>.npz`` / ``<key>.json`` pairs),
2. start a :class:`~repro.serve.server.ModelServer` with a micro-batching
   policy and a two-worker shard pool,
3. fire a few thousand interleaved single-stimulus requests against both
   models and gather the per-request futures,
4. spot-check that a served output is bitwise-equal to evaluating the same
   row directly, and
5. print the server's latency/throughput statistics.

Run with:  python examples/serving_cluster.py
(set REPRO_EXAMPLES_SMOKE=1 for a reduced-workload smoke run)
"""

import os
import tempfile
import time

import numpy as np

from repro.circuit import Sine, TransientOptions
from repro.circuits import build_rc_ladder
from repro.rvf import RVFOptions, extract_rvf_model
from repro.runtime import ModelRegistry, compile_model
from repro.serve import ModelServer, ServePolicy
from repro.sweep import run_sweep, waveform_sweep

#: Reduced workload for CI smoke runs (REPRO_EXAMPLES_SMOKE=1).
SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE", "") not in ("", "0")
N_REQUESTS = 600 if SMOKE else 3000


def extract_compiled(n_sections: int, transient: TransientOptions):
    """One trained + compiled model of the RC-ladder family."""
    scenarios = waveform_sweep(
        build_rc_ladder, [Sine(0.5, amp, 2e5) for amp in (0.1, 0.25, 0.4)],
        transient=transient, builder_kwargs={"n_sections": n_sections})
    sweep = run_sweep(scenarios)
    dataset = sweep.extract_combined_tft(max_snapshots=40)
    extraction = extract_rvf_model(dataset, RVFOptions(error_bound=5e-3))
    states = dataset.state_axis()
    compiled = compile_model(
        extraction.model, dt=transient.dt,
        input_range=(float(states.min()) - 0.05, float(states.max()) + 0.05))
    return compiled, sweep


def main():
    # 1. Train, compile and register two models of the family.
    transient = TransientOptions(t_stop=1e-6, dt=1e-8)
    registry = ModelRegistry(tempfile.mkdtemp(prefix="serving-cluster-"))
    keys = []
    for n_sections in (2, 3):
        compiled, sweep = extract_compiled(n_sections, transient)
        key = registry.save(compiled, provenance=sweep.provenance())
        keys.append(key)
        print(f"registered rc_ladder(n_sections={n_sections}) as {key[:16]}... "
              f"({compiled.nbytes / 1e6:.1f} MB compiled)")
    print(registry.describe())

    # 2. A server with micro-batching and a 2-process shard pool.
    policy = ServePolicy(max_batch=128, max_wait=2e-3, n_workers=2)
    n_requests, n_steps = N_REQUESTS, 100
    times = registry.load(keys[0]).time_axis(n_steps)
    rng = np.random.default_rng(7)

    with ModelServer(registry, policy) as server:
        # 3. Interleaved single-stimulus requests against both models.
        request_keys = [keys[i % 2] for i in range(n_requests)]
        amplitudes = rng.uniform(0.05, 0.4, n_requests)
        frequencies = rng.uniform(1e5, 8e5, n_requests)
        start = time.perf_counter()
        futures = [
            server.submit(key, 0.5 + amp * np.sin(2.0 * np.pi * freq * times))
            for key, amp, freq in zip(request_keys, amplitudes, frequencies)]
        outputs = [future.result(60.0) for future in futures]
        wall = time.perf_counter() - start
        print(f"served {n_requests} requests x {n_steps} steps across "
              f"{len(keys)} models in {wall * 1e3:.0f} ms "
              f"({n_requests / wall:.0f} req/s)")

        # 4. Bitwise spot-check against a direct single-process evaluation.
        probe = 17
        direct = registry.load(request_keys[probe]).evaluate(
            0.5 + amplitudes[probe] * np.sin(2.0 * np.pi * frequencies[probe]
                                             * times))
        assert np.array_equal(outputs[probe], direct)
        print("spot-check: served output bitwise-equal to direct evaluate")

        # 5. What the batching and sharding actually did.
        stats = server.stats()
        print(stats.describe())
        print(f"  batches: {stats.n_batches}, queue p99 "
              f"{stats.queue_latency.p99 * 1e3:.2f} ms, pool {stats.pool}, "
              f"cache {stats.cache}")


if __name__ == "__main__":
    main()
