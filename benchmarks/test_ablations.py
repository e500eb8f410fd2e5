"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not figures from the paper; they probe the sensitivity of the
reproduction to implementation choices:

* transient integration rule (trapezoidal vs backward Euler) for the training
  run that produces the Jacobian snapshots,
* model order (number of frequency poles) — the paper's "trade off complexity
  for accuracy",
* training-excursion amplitude — how much of the state space the training
  sine covers,
* static/dynamic split — modelling H directly vs H - H(0) with an integrated
  static path.
"""

import numpy as np

from repro.analysis import compare_surfaces
from repro.circuit import TransientOptions, transient_analysis
from repro.circuits import build_output_buffer, buffer_training_waveform
from repro.rvf import RVFOptions, extract_rvf_model
from repro.tft import SnapshotTrajectory, default_frequency_grid, extract_tft
from repro.vectfit import initial_complex_poles, vector_fit
from .conftest import ERROR_BOUND


def _train_tft(method="trapezoidal", amplitude=0.5, steps=150, name="ablation"):
    waveform = buffer_training_waveform(amplitude=amplitude)
    circuit = build_output_buffer(input_waveform=waveform, name=name)
    system = circuit.build()
    trajectory = SnapshotTrajectory(system)
    period = 1.0 / waveform.frequency
    transient_analysis(system, TransientOptions(t_stop=period, dt=period / steps,
                                                method=method),
                       snapshot_callback=trajectory)
    return extract_tft(trajectory, default_frequency_grid(1.0, 10e9, 4), max_snapshots=110)


class TestIntegratorAblation:
    def test_backward_euler_training_still_extracts_accurately(self, buffer_tft):
        tft_be = _train_tft(method="backward_euler", name="ablation_be")
        extraction = extract_rvf_model(tft_be, RVFOptions(error_bound=ERROR_BOUND))
        report = compare_surfaces(tft_be.siso_response(), extraction.model_surface(),
                                  tft_be.state_axis(), tft_be.frequencies)
        assert report.relative_rms < 5e-2

    def test_trapezoidal_and_backward_euler_agree_on_the_hyperplane(self, buffer_tft):
        tft_be = _train_tft(method="backward_euler", name="ablation_be2")
        gain_trap = np.sort(np.abs(buffer_tft.siso_dc()))
        gain_be = np.sort(np.abs(tft_be.siso_dc()))
        n = min(gain_trap.size, gain_be.size)
        assert np.allclose(gain_trap[-n:], gain_be[-n:], atol=0.05)


class TestOrderSweepAblation:
    def test_accuracy_improves_then_saturates_with_frequency_poles(self, buffer_tft):
        """The paper's complexity/accuracy trade-off for the frequency poles."""
        svals = 2j * np.pi * buffer_tft.frequencies
        dc = buffer_tft.siso_dc().real
        dynamic = buffer_tft.siso_response() - dc[:, None]
        errors = []
        for order in (2, 4, 8):
            result = vector_fit(svals, dynamic, initial_complex_poles(1e3, 10e9, order))
            errors.append(result.relative_error)
        # More poles help substantially at first (order 2 -> 4) and then the
        # error saturates at the trajectory noise floor instead of improving
        # further or diverging.
        assert min(errors[1:]) <= errors[0] * 1.2
        assert max(errors[1:]) <= 10.0 * min(errors[1:])

    def test_benchmark_order_sweep(self, benchmark, buffer_tft):
        svals = 2j * np.pi * buffer_tft.frequencies
        dc = buffer_tft.siso_dc().real
        dynamic = buffer_tft.siso_response() - dc[:, None]

        def sweep():
            return [vector_fit(svals, dynamic,
                               initial_complex_poles(1e3, 10e9, order)).relative_error
                    for order in (2, 4, 6)]

        errors = benchmark.pedantic(sweep, rounds=1, iterations=1)
        assert len(errors) == 3


class TestTrainingAmplitudeAblation:
    def test_smaller_training_excursion_limits_the_modelled_state_range(self):
        tft_small = _train_tft(amplitude=0.2, name="ablation_amp")
        states = tft_small.state_axis()
        assert states.min() > 0.65 and states.max() < 1.15

    def test_small_excursion_model_still_fits_its_own_range(self):
        tft_small = _train_tft(amplitude=0.2, name="ablation_amp2")
        extraction = extract_rvf_model(tft_small, RVFOptions(error_bound=ERROR_BOUND))
        report = compare_surfaces(tft_small.siso_response(), extraction.model_surface(),
                                  tft_small.state_axis(), tft_small.frequencies)
        assert report.relative_rms < 2e-2


class TestStaticSplitAblation:
    def test_direct_fit_of_h_is_also_usable(self, buffer_tft):
        extraction = extract_rvf_model(
            buffer_tft, RVFOptions(error_bound=ERROR_BOUND, split_static=False))
        report = compare_surfaces(buffer_tft.siso_response(), extraction.model_surface(),
                                  buffer_tft.state_axis(), buffer_tft.frequencies)
        assert report.relative_rms < 5e-2

    def test_split_static_is_at_least_as_accurate(self, buffer_tft, rvf_extraction):
        direct = extract_rvf_model(
            buffer_tft, RVFOptions(error_bound=ERROR_BOUND, split_static=False))
        split_report = compare_surfaces(buffer_tft.siso_response(),
                                        rvf_extraction.model_surface(),
                                        buffer_tft.state_axis(), buffer_tft.frequencies)
        direct_report = compare_surfaces(buffer_tft.siso_response(),
                                         direct.model_surface(),
                                         buffer_tft.state_axis(), buffer_tft.frequencies)
        assert split_report.relative_rms <= direct_report.relative_rms * 2.0
