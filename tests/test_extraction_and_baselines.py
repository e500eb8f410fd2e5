"""Tests for the end-to-end RVF extraction, model export and the baselines."""

import numpy as np
import pytest

from repro.baselines import extract_caffeine_model, fit_caffeine
from repro.circuit import Sine, TransientOptions, transient_analysis
from repro.circuits import build_rc_ladder
from repro.exceptions import FittingError
from repro.rvf import (
    RVFOptions,
    extract_rvf_model,
    model_equations,
    simulate_hammerstein,
    to_verilog_a,
)
from repro.tft import SnapshotTrajectory, default_frequency_grid, extract_tft

from conftest import build_nonlinear_lowpass


class TestRVFExtraction:
    def test_reproduces_training_hyperplane(self, nonlinear_tft, nonlinear_rvf):
        surface = nonlinear_rvf.model_surface()
        data = nonlinear_tft.siso_response()
        relative = (np.sqrt(np.mean(np.abs(surface - data) ** 2))
                    / np.sqrt(np.mean(np.abs(data) ** 2)))
        assert relative < 5e-3

    def test_model_is_stable(self, nonlinear_rvf):
        assert nonlinear_rvf.model.is_stable()

    def test_dc_point_reproduced(self, nonlinear_tft, nonlinear_rvf):
        model = nonlinear_rvf.model
        # At the DC input and in equilibrium the model output equals the
        # circuit's DC output (integration constants pinned there).
        times = np.linspace(0.0, 1e-6, 50)
        inputs = np.full_like(times, model.dc_input)
        result = simulate_hammerstein(model, times, inputs)
        assert np.allclose(result.outputs, model.dc_output, atol=1e-9)

    def test_dc_transfer_matches_instantaneous_gain_data(self, nonlinear_tft, nonlinear_rvf):
        model = nonlinear_rvf.model
        states = nonlinear_tft.state_axis()
        model_dc = model.dc_transfer(states)
        data_dc = nonlinear_tft.siso_dc().real
        assert np.sqrt(np.mean((model_dc - data_dc) ** 2)) < 2e-2 * np.max(np.abs(data_dc))

    def test_orders_recorded_in_metadata(self, nonlinear_rvf):
        meta = nonlinear_rvf.model.metadata
        assert meta.n_frequency_poles == nonlinear_rvf.n_frequency_poles
        assert meta.n_state_poles == nonlinear_rvf.n_state_poles
        assert meta.build_time_seconds > 0.0

    def test_generalisation_to_unseen_input(self, nonlinear_rvf):
        from repro.circuit.waveforms import BitPattern, prbs_bits
        pattern = BitPattern(bits=prbs_bits(12), bit_rate=2e6, low=0.2, high=1.0)
        circuit = build_nonlinear_lowpass(pattern, name="nl_validation")
        system = circuit.build()
        reference = transient_analysis(system, TransientOptions(t_stop=pattern.duration,
                                                                dt=2e-9))
        result = simulate_hammerstein(nonlinear_rvf.model, reference.times,
                                      reference.inputs[:, 0])
        rmse = np.sqrt(np.mean((reference.outputs[:, 0] - result.outputs) ** 2))
        assert rmse < 0.05 * (reference.outputs.max() - reference.outputs.min())

    def test_linear_circuit_extraction_matches_transfer_function(self):
        circuit = build_rc_ladder(1, resistance=1e3, capacitance=1e-9,
                                  input_waveform=Sine(0.5, 0.3, 1e4))
        system = circuit.build()
        trajectory = SnapshotTrajectory(system)
        transient_analysis(system, TransientOptions(t_stop=1e-4, dt=1e-6),
                           snapshot_callback=trajectory)
        tft = extract_tft(trajectory, default_frequency_grid(1e3, 1e8, 5), max_snapshots=50)
        extraction = extract_rvf_model(tft, RVFOptions(error_bound=1e-4))
        freqs = tft.frequencies
        surface = extraction.model.transfer_function(np.array([0.5]), freqs)[0]
        expected = 1.0 / (1.0 + 2j * np.pi * freqs * 1e3 * 1e-9)
        assert np.max(np.abs(surface - expected)) < 5e-3

    def test_invalid_error_bound_rejected(self):
        with pytest.raises(FittingError):
            RVFOptions(error_bound=0.0)

    def test_summary_mentions_pole_counts(self, nonlinear_rvf):
        text = nonlinear_rvf.summary()
        assert "frequency poles" in text and "state poles" in text


class TestModelExport:
    def test_equations_listing_contains_all_branches(self, nonlinear_rvf):
        text = model_equations(nonlinear_rvf.model)
        assert text.count("d/dt y") == nonlinear_rvf.model.n_branches
        assert "F0(" in text
        assert "stable by construction: True" in text

    def test_verilog_a_module_structure(self, nonlinear_rvf):
        text = to_verilog_a(nonlinear_rvf.model, module_name="buffer_model")
        assert "module buffer_model" in text
        assert "analog begin" in text
        assert "endmodule" in text


class TestCaffeineBaseline:
    def test_fits_polynomial_target_exactly(self):
        x = np.linspace(-1, 1, 60)
        y = 0.5 + 2.0 * x - 1.5 * x ** 3
        function = fit_caffeine(x, y.astype(complex), generations=10)
        assert function.fit_error < 1e-8

    def test_fits_saturating_target_reasonably(self):
        x = np.linspace(0.4, 1.4, 90)
        y = np.tanh(6 * (x - 0.9))
        function = fit_caffeine(x, y.astype(complex), generations=20)
        assert function.fit_error < 0.1

    def test_fitted_functions_integrate(self):
        x = np.linspace(-1, 1, 50)
        y = np.exp(-x ** 2)
        function = fit_caffeine(x, y.astype(complex), generations=10)
        integral = function.integrate()
        h = 1e-5
        numeric = (integral(0.3 + h) - integral(0.3 - h)) / (2 * h)
        assert numeric == pytest.approx(function(0.3), rel=1e-4, abs=1e-6)

    def test_search_is_deterministic(self):
        """Every search draws from one stream seeded with the module's SEED."""
        x = np.linspace(0, 1, 40)
        y = np.sin(3 * x)
        f1 = fit_caffeine(x, y.astype(complex), generations=8)
        f2 = fit_caffeine(x, y.astype(complex), generations=8)
        assert [t.name for t in f1.terms] == [t.name for t in f2.terms]

    def test_too_few_samples_rejected(self):
        with pytest.raises(FittingError):
            fit_caffeine(np.linspace(0, 1, 4), np.zeros(4))

    def test_extraction_produces_stable_model(self, nonlinear_tft):
        result = extract_caffeine_model(nonlinear_tft, error_bound=1e-3,
                                        generations=12)
        assert result.model.is_stable()
        assert result.n_frequency_poles >= 2

    def test_extraction_less_accurate_than_rvf(self, nonlinear_tft, nonlinear_rvf):
        caffeine = extract_caffeine_model(nonlinear_tft, error_bound=1e-3,
                                          generations=12)
        data = nonlinear_tft.siso_response()
        rvf_err = np.sqrt(np.mean(np.abs(nonlinear_rvf.model_surface() - data) ** 2))
        caffeine_err = np.sqrt(np.mean(np.abs(caffeine.model_surface() - data) ** 2))
        assert rvf_err <= caffeine_err * 1.5

    def test_restricted_basis_flow_is_flagged_manual(self, nonlinear_tft):
        result = extract_caffeine_model(nonlinear_tft, error_bound=1e-3,
                                        generations=8)
        assert not result.fully_automated

