"""Wall-clock benchmark: compiled factor-cached engine vs legacy assembly.

Acceptance benchmark of the sparse factor-cached simulation engine: the
transient analysis of the paper's four-stage output buffer (the hottest path
of the whole reproduction — it is rerun for every figure) must be at least
2x faster with the compiled engine than with the legacy per-device dense
stamping path, at identical accuracy.

Run directly for a report::

    python -m pytest benchmarks/test_engine_speedup.py -q -s
"""

import time

import numpy as np
import pytest

from repro.circuit import TransientOptions, transient_analysis
from repro.circuit.linalg import usable_cores
from repro.circuit.waveforms import Sine
from repro.circuits import build_output_buffer, buffer_training_waveform, build_rc_ladder
from repro.circuits.buffer import buffer_test_pattern
from repro.tft import (SnapshotTrajectory, default_frequency_grid, extract_tft,
                       snapshot_transfer_function)

from .artifacts import record_benchmark


def _best_wall_time(system, options, repeats=3):
    """Best-of-N wall time and the result of the last run."""
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = transient_analysis(system, options)
        best = min(best, time.perf_counter() - start)
    return best, result


class TestBufferTransientSpeedup:
    def test_buffer_transient_at_least_2x_faster(self, capsys):
        waveform = buffer_training_waveform()
        system = build_output_buffer(input_waveform=waveform).build()
        system.compile("auto")  # exclude one-time compilation from timing
        period = 1.0 / waveform.frequency
        common = dict(t_stop=period / 4, dt=period / 150)

        t_legacy, r_legacy = _best_wall_time(
            system, TransientOptions(assembly="legacy", **common))
        t_compiled, r_compiled = _best_wall_time(
            system, TransientOptions(**common))

        speedup = t_legacy / t_compiled
        with capsys.disabled():
            print(f"\n[buffer transient] legacy {t_legacy * 1e3:.1f} ms, "
                  f"compiled {t_compiled * 1e3:.1f} ms -> {speedup:.2f}x "
                  f"({r_compiled.n_points} points, "
                  f"{r_compiled.newton_iterations} Newton iterations vs "
                  f"{r_legacy.newton_iterations} legacy)")

        record_benchmark("BENCH_engine.json", "buffer_transient", {
            "legacy_ms": t_legacy * 1e3,
            "compiled_ms": t_compiled * 1e3,
            "speedup": speedup,
            "n_points": r_compiled.n_points,
            "newton_iterations": r_compiled.newton_iterations,
        })

        # Identical trajectory within solver tolerance.
        assert r_compiled.n_points == r_legacy.n_points
        span = float(r_legacy.outputs.max() - r_legacy.outputs.min()) or 1.0
        np.testing.assert_allclose(r_compiled.outputs, r_legacy.outputs,
                                   rtol=0, atol=5e-5 * span)
        assert speedup >= 2.0, (
            f"compiled engine only {speedup:.2f}x faster than legacy")


class TestValidationFamily:
    #: The held-out validation sines of the repo benchmark's ``extract``
    #: workload at their design points: (amplitude V, frequency Hz).
    HELDOUT_DESIGN = ((0.45, 3.0e6), (0.30, 1.5e6), (0.15, 2.5e6))
    #: Bound on the median sequential / family ratio.  On the 2-core
    #: reference box the median of 9 pairs read 1.48-1.55x over 6 runs, and
    #: 0.99-1.06x in 6 A/A runs (sequential against sequential); best-of-5
    #: ratios read 1.38-1.68x and 0.90-1.22x A/A: too noisy to gate on.
    MIN_SPEEDUP = 1.3
    PAIRS = 9

    def test_buffer_validation_family_at_least_1_3x_faster(self, capsys):
        """Three held-out transients as one family vs three sequential runs.

        The family evaluates the stacked ``(3, 27)`` state once per Newton
        iteration where the sequential runs evaluate three times; each row
        still factors its own Jacobian.  Rows must be byte-equal to their own
        runs.  The median ratio over ``PAIRS`` pairs, alternating which side
        runs first, must reach ``MIN_SPEEDUP``.
        """
        training = buffer_training_waveform()
        period = 1.0 / training.frequency
        options = TransientOptions(t_stop=period, dt=period / 150)
        systems = [build_output_buffer(input_waveform=Sine(
            training.offset, amplitude, frequency)).build()
            for amplitude, frequency in self.HELDOUT_DESIGN]
        for system in systems:
            system.compile("auto")  # exclude one-time compilation from timing

        family_s, sequential_s = [], []
        for pair in range(self.PAIRS):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                if side == 0:
                    family = transient_analysis(systems, options)
                    family_s.append(time.perf_counter() - start)
                else:
                    sequential = [transient_analysis(system, options)
                                  for system in systems]
                    sequential_s.append(time.perf_counter() - start)
        ratios = np.array(sequential_s) / np.array(family_s)
        speedup = float(np.median(ratios))
        with capsys.disabled():
            print(f"[buffer validation family] sequential "
                  f"{np.median(sequential_s) * 1e3:.1f} ms, family "
                  f"{np.median(family_s) * 1e3:.1f} ms -> {speedup:.2f}x "
                  f"(median of {self.PAIRS} pairs; "
                  f"{[r.newton_iterations for r in family]} Newton iterations)")

        record_benchmark("BENCH_engine.json", "buffer_validation_family", {
            "sequential_ms": min(sequential_s) * 1e3,
            "family_ms": min(family_s) * 1e3,
            "sequential_median_ms": float(np.median(sequential_s)) * 1e3,
            "family_median_ms": float(np.median(family_s)) * 1e3,
            "pair_ratios": [float(ratio) for ratio in ratios],
            "speedup": speedup,
            "min_speedup": self.MIN_SPEEDUP,
            "newton_iterations": [r.newton_iterations for r in family],
        })

        for row, solo in zip(family, sequential):
            for field in ("times", "states", "outputs", "inputs"):
                np.testing.assert_array_equal(getattr(row, field).view(np.uint64),
                                              getattr(solo, field).view(np.uint64))
            assert row.newton_iterations == solo.newton_iterations
            assert row.cache_factorizations == solo.cache_factorizations
        assert speedup >= self.MIN_SPEEDUP, (
            f"validation family only {speedup:.2f}x faster than sequential runs")


def _serial_tft(trajectory, frequencies, max_snapshots):
    """``extract_tft``'s response arrays from one serial loop over the snapshots."""
    trajectory = trajectory.subsample(max_snapshots)
    shape = (len(trajectory), frequencies.size, trajectory.n_outputs,
             trajectory.n_inputs)
    response = np.empty(shape, dtype=complex)
    dc_response = np.empty((shape[0],) + shape[2:], dtype=complex)
    for k, snapshot in enumerate(trajectory):
        response[k], dc_response[k] = snapshot_transfer_function(
            snapshot, trajectory.input_matrix, trajectory.output_matrix, frequencies)
    return response, dc_response


class TestThreadedTFT:
    #: Bound on the median serial / threaded ratio with >= 2 usable cores.
    #: On the 2-core reference box the median of 9 pairs read 1.16-1.71x
    #: over 32 runs, and 0.94-1.07x in 10 A/A runs (serial against serial).
    #: Best-of-5 ratios read 1.06-1.79x over 42 runs: too noisy to gate on.
    MIN_SPEEDUP = 1.1
    PAIRS = 9

    def test_buffer_tft_on_usable_cores(self, capsys):
        """The buffer's 110 x 41 TFT on the usable cores vs one serial loop.

        ``extract_tft`` solves contiguous snapshot ranges on a thread pool
        (LAPACK releases the GIL); the serial loop is what it ran before.
        The dataset must be byte-equal to the serial loop's.  With >= 2
        usable cores the median ratio over ``PAIRS`` pairs, alternating
        which side runs first, must reach ``MIN_SPEEDUP``; on one core the
        ratio is recorded, not asserted.
        """
        waveform = buffer_training_waveform()
        system = build_output_buffer(input_waveform=waveform).build()
        trajectory = SnapshotTrajectory(system)
        period = 1.0 / waveform.frequency
        transient_analysis(system, TransientOptions(t_stop=period, dt=period / 150),
                           snapshot_callback=trajectory)
        grid = default_frequency_grid(1.0, 10e9, 4)

        serial_s, threaded_s, threaded_cpu_s = [], [], []
        for pair in range(self.PAIRS):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                start, cpu_start = time.perf_counter(), time.process_time()
                if side == 0:
                    reference = _serial_tft(trajectory, grid, 110)
                    serial_s.append(time.perf_counter() - start)
                else:
                    tft = extract_tft(trajectory, grid, max_snapshots=110)
                    threaded_s.append(time.perf_counter() - start)
                    threaded_cpu_s.append(time.process_time() - cpu_start)
        cores = usable_cores()
        ratios = np.array(serial_s) / np.array(threaded_s)
        # Process CPU time over wall time of the threaded call: near 2 when
        # its two threads ran side by side, near 1 when they shared a core.
        cpu_wall = np.array(threaded_cpu_s) / np.array(threaded_s)
        speedup = float(np.median(ratios))
        pairs = [{"serial_ms": serial * 1e3, "threaded_ms": threaded * 1e3,
                  "ratio": float(ratio), "threaded_cpu_wall": float(load)}
                 for serial, threaded, ratio, load
                 in zip(serial_s, threaded_s, ratios, cpu_wall)]
        with capsys.disabled():
            print(f"[buffer TFT 110x41] serial {np.median(serial_s) * 1e3:.1f} ms, "
                  f"{cores} usable core(s) {np.median(threaded_s) * 1e3:.1f} ms "
                  f"-> {speedup:.2f}x (median of {self.PAIRS} pairs; threaded "
                  f"CPU/wall {np.median(cpu_wall):.2f})")
            print("  pairs (serial/threaded ms, ratio, threaded CPU/wall): "
                  + ", ".join(f"{pair['serial_ms']:.1f}/{pair['threaded_ms']:.1f}"
                              f" {pair['ratio']:.2f}x {pair['threaded_cpu_wall']:.2f}"
                              for pair in pairs))

        record_benchmark("BENCH_engine.json", "buffer_tft_threads", {
            "usable_cores": cores,
            "serial_median_ms": float(np.median(serial_s)) * 1e3,
            "threaded_median_ms": float(np.median(threaded_s)) * 1e3,
            "serial_ms": min(serial_s) * 1e3,
            "threaded_ms": min(threaded_s) * 1e3,
            "pairs": pairs,
            "threaded_cpu_wall_median": float(np.median(cpu_wall)),
            "speedup": speedup,
            "min_speedup": self.MIN_SPEEDUP if cores >= 2 else None,
        })

        response, dc_response = reference
        np.testing.assert_array_equal(tft.response.view(np.uint64),
                                      response.view(np.uint64))
        np.testing.assert_array_equal(tft.dc_response.view(np.uint64),
                                      dc_response.view(np.uint64))
        if cores >= 2:
            assert speedup >= self.MIN_SPEEDUP, (
                f"TFT on {cores} cores only {speedup:.2f}x faster than serial")


class TestSparseLadderSpeedup:
    def test_large_linear_network_at_least_2_5x_faster(self, capsys):
        """Factor caching alone: a linear circuit refactors (almost) never."""
        circuit = build_rc_ladder(120, input_waveform=Sine(0.5, 0.3, 1e6))
        system = circuit.build()
        engine = system.compile("auto")
        assert engine.is_sparse
        common = dict(t_stop=0.5e-6, dt=2e-9)

        t_legacy, r_legacy = _best_wall_time(
            system, TransientOptions(assembly="legacy", **common), repeats=2)
        t_compiled, r_compiled = _best_wall_time(
            system, TransientOptions(**common), repeats=3)

        speedup = t_legacy / t_compiled
        with capsys.disabled():
            print(f"[rc ladder n={system.n_unknowns}] legacy {t_legacy * 1e3:.1f} ms, "
                  f"sparse {t_compiled * 1e3:.1f} ms -> {speedup:.2f}x")

        record_benchmark("BENCH_engine.json", "rc_ladder_sparse", {
            "n_unknowns": system.n_unknowns,
            "legacy_ms": t_legacy * 1e3,
            "sparse_ms": t_compiled * 1e3,
            "speedup": speedup,
        })

        np.testing.assert_allclose(r_compiled.outputs, r_legacy.outputs,
                                   rtol=1e-7, atol=1e-9)
        # Locally this measures ~10x; the slack absorbs noisy shared CI runners.
        assert speedup >= 2.5


class TestAdaptiveStepping:
    def test_bitpattern_adaptive_matches_fine_reference_with_3x_fewer_steps(self, capsys):
        """LTE-controlled stepping on the paper's 2.5 GS/s validation stimulus.

        The raised-cosine bit edges need fine steps but the flat tops do not;
        a fixed grid resolves everything at edge resolution.  Acceptance: the
        adaptive run agrees with a 4x-finer fixed-dt reference within the LTE
        tolerance while accepting at least 3x fewer steps.
        """
        waveform = buffer_test_pattern(n_bits=16)
        system = build_output_buffer(input_waveform=waveform).build()
        system.compile("auto")  # exclude one-time compilation from timing
        bit_period = 1.0 / waveform.bit_rate
        t_stop = 16 * bit_period
        dt_fine = bit_period / 160          # 4x finer than the bit/40 base grid
        lte_rel_tol = 1e-3

        start = time.perf_counter()
        r_fixed = transient_analysis(
            system, TransientOptions(t_stop=t_stop, dt=dt_fine))
        t_fixed = time.perf_counter() - start
        start = time.perf_counter()
        r_adaptive = transient_analysis(
            system, TransientOptions(t_stop=t_stop, dt=dt_fine, adaptive=True,
                                     lte_rel_tol=lte_rel_tol,
                                     max_dt_factor=40.0))
        t_adaptive = time.perf_counter() - start

        # Resample the non-uniform adaptive grid onto the reference grid.
        served = r_adaptive.resample(r_fixed.times)
        reference = r_fixed.outputs[:, 0]
        rel_rmse = (np.sqrt(np.mean((served - reference) ** 2))
                    / np.sqrt(np.mean(reference ** 2)))
        step_ratio = r_fixed.accepted_steps / r_adaptive.accepted_steps

        with capsys.disabled():
            print(f"\n[buffer adaptive] fixed dt={dt_fine:.2e}: "
                  f"{r_fixed.accepted_steps} steps in {t_fixed * 1e3:.1f} ms; "
                  f"adaptive: {r_adaptive.accepted_steps} steps "
                  f"({r_adaptive.rejected_steps} rejected) in "
                  f"{t_adaptive * 1e3:.1f} ms -> {step_ratio:.1f}x fewer steps, "
                  f"rel RMSE {rel_rmse:.2e}")

        record_benchmark("BENCH_engine.json", "buffer_adaptive_bitpattern", {
            "fixed_steps": r_fixed.accepted_steps,
            "adaptive_steps": r_adaptive.accepted_steps,
            "adaptive_rejections": r_adaptive.rejected_steps,
            "lte_rejections": r_adaptive.lte_rejections,
            "step_ratio": step_ratio,
            "fixed_ms": t_fixed * 1e3,
            "adaptive_ms": t_adaptive * 1e3,
            "relative_rmse": rel_rmse,
            "lte_rel_tol": lte_rel_tol,
        })

        assert r_adaptive.times[-1] == t_stop        # snapped exactly onto t_stop
        assert step_ratio >= 3.0, (
            f"adaptive stepping only saved {step_ratio:.1f}x steps")
        # "Within the LTE tolerance": the controller holds the *per-step* error
        # at lte_rel_tol; the accumulated trajectory deviation stays within a
        # small multiple of it.
        assert rel_rmse <= 3.0 * lte_rel_tol, (
            f"adaptive trajectory drifted {rel_rmse:.2e} from the reference")


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
