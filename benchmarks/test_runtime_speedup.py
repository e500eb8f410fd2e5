"""Acceptance benchmark of the compiled model runtime (:mod:`repro.runtime`).

The serving claim of the surrogate-model flow: once the paper's output-buffer
model is compiled, a batch of >= 1000 stimuli must evaluate at least **50x
faster** than re-simulating those stimuli through the full transistor-level
transient engine.  The full-engine cost is measured on a sample of the batch
and scaled (running all 1000 transients would take tens of seconds for no
extra information); the compiled batch is timed in full.  A sampled accuracy
cross-check guards against benchmarking a model that has drifted into
nonsense.

A second, information-only section (``long_rows``) times the ``bulk``
benchmark's shard-job shapes, 26 and 64 rows x 4096 steps, whose kernel
workspace is several times a core's cache, and checks that a batch evaluated
in several tiles is bit-identical to its rows evaluated one at a time.

Run directly for a report::

    python -m pytest benchmarks/test_runtime_speedup.py -q -s
"""

import statistics
import time

import numpy as np
import pytest

from repro.analysis import batched_waveform_errors
from repro.circuit import TransientOptions, transient_analysis
from repro.circuit.waveforms import Sine
from repro.circuits import build_output_buffer
from repro.runtime import compile_model

from .artifacts import record_benchmark

#: Batch size of the serving benchmark (acceptance: >= 1000).
N_STIMULI = 1000
#: Samples per stimulus; with the training sine's dt this spans ~1.7 periods.
N_STEPS = 256
#: Full transients actually run to estimate the per-stimulus engine cost.
N_REFERENCE = 4
#: Rows x steps of the ``bulk`` workload's shard jobs (information only).
LONG_ROW_SHAPES = ((26, 4096), (64, 4096))
#: Calls per long-row shape, alternated between the shapes; median recorded.
N_LONG_CALLS = 9


def _compiled_buffer(rvf_extraction):
    """The buffer model compiled at its training step over its excursion."""
    dt = 1.0 / (2e6 * 150)                      # training transient's step
    states = rvf_extraction.tft.state_axis()
    lo, hi = float(states.min()), float(states.max())
    return compile_model(rvf_extraction.model, dt=dt, input_range=(lo, hi))


def _sine_stimuli(compiled, n_rows: int, n_steps: int):
    """In-excursion sines with randomised amplitude, frequency and phase
    (fixed seed: the benchmark must be stable)."""
    lo, hi = compiled.u_min, compiled.u_max
    rng = np.random.default_rng(0)
    offset = 0.5 * (lo + hi)
    amps = rng.uniform(0.2, 0.45 * (hi - lo), n_rows)
    freqs = rng.uniform(1e6, 4e6, n_rows)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_rows)
    times = compiled.time_axis(n_steps)
    stimuli = offset + amps[:, None] * np.sin(
        2.0 * np.pi * freqs[:, None] * times[None, :] + phases[:, None])
    return stimuli, (offset, amps, freqs, phases, times)


class TestBatchedRuntimeSpeedup:
    def test_batched_model_at_least_50x_faster_than_engine(self, capsys,
                                                           rvf_extraction):
        compiled = _compiled_buffer(rvf_extraction)
        dt = compiled.dt
        stimuli, (offset, amps, freqs, phases, times) = _sine_stimuli(
            compiled, N_STIMULI, N_STEPS)

        # Serving path: the whole batch in one lock-step evaluation.
        compiled.evaluate(stimuli[:2])              # warm-up (allocations)
        batch_start = time.perf_counter()
        served = compiled.evaluate(stimuli)
        batch_seconds = time.perf_counter() - batch_start

        # Engine path: full transistor-level transients on a sample, scaled.
        t_stop = float(times[-1])
        sample_seconds = []
        sampled_refs = []
        for k in range(N_REFERENCE):
            waveform = Sine(offset, float(amps[k]), float(freqs[k]),
                            phase=float(phases[k]))
            system = build_output_buffer(input_waveform=waveform).build()
            system.compile("auto")
            start = time.perf_counter()
            result = transient_analysis(system, TransientOptions(
                t_stop=t_stop, dt=dt))
            sample_seconds.append(time.perf_counter() - start)
            sampled_refs.append(np.interp(times, result.times,
                                          result.outputs[:, 0]))
        per_sim = float(np.mean(sample_seconds))
        engine_seconds = per_sim * N_STIMULI
        speedup = engine_seconds / batch_seconds

        errors = batched_waveform_errors(np.vstack(sampled_refs),
                                         served[:N_REFERENCE])
        with capsys.disabled():
            print(f"\n[runtime batch] {N_STIMULI} stimuli x {N_STEPS} steps: "
                  f"batched model {batch_seconds * 1e3:.1f} ms, full engine "
                  f"{per_sim * 1e3:.1f} ms/sim -> est. {engine_seconds:.1f} s "
                  f"({speedup:.0f}x); sampled accuracy "
                  f"{errors.max_relative_rmse():.2e} relative RMSE")

        record_benchmark("BENCH_runtime.json", "batched_buffer_serving", {
            "n_stimuli": N_STIMULI,
            "n_steps": N_STEPS,
            "batch_ms": batch_seconds * 1e3,
            "engine_ms_per_sim": per_sim * 1e3,
            "engine_s_estimated": engine_seconds,
            "speedup": speedup,
            "n_reference_sims": N_REFERENCE,
            "sampled_max_relative_rmse": errors.max_relative_rmse(),
            "n_branches": compiled.n_branches,
        })

        # The served outputs must still track the engine on the sampled
        # stimuli — a fast wrong model is not a surrogate.
        assert errors.max_relative_rmse() < 0.05
        assert speedup >= 50.0, (
            f"batched runtime only {speedup:.1f}x faster than the engine")

    def test_long_rows_at_bulk_job_shapes(self, capsys, rvf_extraction):
        """Rows/s at the ``bulk`` job shapes (no bound) and the tile carry."""
        compiled = _compiled_buffer(rvf_extraction)
        n_rows = max(rows for rows, _ in LONG_ROW_SHAPES)
        stimuli, _ = _sine_stimuli(compiled, n_rows,
                                   max(steps for _, steps in LONG_ROW_SHAPES))
        batches = [stimuli[:rows, :steps] for rows, steps in LONG_ROW_SHAPES]
        for batch in batches:
            compiled.evaluate(batch)                # warm-up (allocations)
        seconds = [[] for _ in batches]
        for call in range(N_LONG_CALLS):
            order = range(len(batches))
            for i in (order if call % 2 == 0 else reversed(order)):
                start = time.perf_counter()
                compiled.evaluate(batches[i])
                seconds[i].append(time.perf_counter() - start)
        results = {}
        for (rows, steps), times in zip(LONG_ROW_SHAPES, seconds):
            median = statistics.median(times)
            results[f"{rows}x{steps}"] = {"median_ms": median * 1e3,
                                          "rows_per_s": rows / median}

        # The 64-row batch runs in several tiles; a single 4096-step row of
        # this model fits the tile budget, so each row alone is one tile and
        # the comparison checks the carry across tile edges.
        served = compiled.evaluate(stimuli)
        one_by_one = np.vstack([compiled.evaluate(row) for row in stimuli])
        bit_identical = bool(np.array_equal(served.view(np.uint64),
                                            one_by_one.view(np.uint64)))
        with capsys.disabled():
            print("\n[runtime long rows] " + ", ".join(
                f"{shape}: {r['median_ms']:.1f} ms ({r['rows_per_s']:.0f} "
                f"rows/s)" for shape, r in results.items())
                + f"; tiled rows bit-identical: {bit_identical}")
        record_benchmark("BENCH_runtime.json", "long_rows", {
            "shapes": results,
            "n_calls": N_LONG_CALLS,
            "n_branches": compiled.n_branches,
            "tiled_equals_single_rows": bit_identical,
        })
        assert bit_identical, "tiled batch differs from its rows one by one"


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
