"""Tests for the analysis helpers and the ready-made circuit library."""

import numpy as np
import pytest

from repro.analysis import (
    ComparisonTable,
    ModelComparisonRow,
    ascii_table,
    compare_surfaces,
    db,
    gain_error_db,
    phase_error_deg,
    surface_rmse_db,
    time_domain_rmse,
)
from repro.circuit import TransientOptions, ac_analysis, dc_operating_point, frequency_grid, transient_analysis
from repro.circuits import (
    BufferParams,
    build_differential_amplifier,
    build_diode_limiter,
    build_output_buffer,
    buffer_test_pattern,
    buffer_training_waveform,
    build_rc_ladder,
)


class TestErrorMetrics:
    def test_db_of_unity_is_zero(self):
        assert db(1.0) == pytest.approx(0.0)

    def test_db_of_zero_is_finite(self):
        assert np.isfinite(db(0.0))

    def test_gain_error_db_matches_manual(self):
        ref = np.array([1.0 + 0j])
        model = np.array([1.001 + 0j])
        assert gain_error_db(ref, model)[0] == pytest.approx(20 * np.log10(1e-3), abs=1e-6)

    def test_phase_error_wraps(self):
        ref = np.array([np.exp(1j * np.deg2rad(179.0))])
        model = np.array([np.exp(-1j * np.deg2rad(179.0))])
        assert abs(phase_error_deg(ref, model)[0]) == pytest.approx(2.0, abs=1e-6)

    def test_surface_rmse_db(self):
        ref = np.zeros((3, 3), dtype=complex)
        model = np.full((3, 3), 1e-2, dtype=complex)
        assert surface_rmse_db(ref, model) == pytest.approx(-40.0)

    def test_time_domain_rmse(self):
        a = np.zeros(100)
        b = np.full(100, 0.1)
        assert time_domain_rmse(a, b) == pytest.approx(0.1)

    def test_time_domain_rmse_shape_check(self):
        with pytest.raises(ValueError):
            time_domain_rmse(np.zeros(3), np.zeros(4))

    def test_compare_surfaces_report(self):
        states = np.linspace(0, 1, 4)
        freqs = np.logspace(3, 6, 5)
        ref = np.ones((4, 5), dtype=complex)
        model = ref + 1e-3
        report = compare_surfaces(ref, model, states, freqs)
        assert report.max_gain_error_db == pytest.approx(-60.0, abs=0.1)
        assert report.relative_rms == pytest.approx(1e-3, rel=1e-6)
        assert "dB" in report.summary()

    def test_compare_surfaces_shape_mismatch(self):
        with pytest.raises(ValueError):
            compare_surfaces(np.ones((2, 2)), np.ones((3, 2)), np.zeros(2), np.zeros(2))

    def test_worst_region_location(self):
        states = np.array([0.0, 1.0])
        freqs = np.array([1e3, 1e6])
        ref = np.ones((2, 2), dtype=complex)
        model = ref.copy()
        model[1, 0] += 0.1
        report = compare_surfaces(ref, model, states, freqs)
        assert report.worst_region() == (1.0, 1e3)


class TestReporting:
    def test_ascii_table_alignment(self):
        table = ascii_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_comparison_table_render(self):
        table = ComparisonTable()
        table.add(ModelComparisonRow("RVF", -62.0, 0.0098, 120.0, 7.0, True))
        table.add(ModelComparisonRow("CAFFEINE", -22.0, 0.0138, 420.0, 12.0, False))
        text = table.render()
        assert "RVF" in text and "CAFFEINE" in text
        assert "YES" in text and "NO" in text

    def test_best_by_accuracy(self):
        table = ComparisonTable()
        table.add(ModelComparisonRow("A", -10.0, 1.0, 1.0, 1.0, True))
        table.add(ModelComparisonRow("B", -50.0, 1.0, 1.0, 1.0, True))
        assert table.best_by_accuracy().name == "B"


class TestCircuitLibrary:
    def test_rc_ladder_section_count(self):
        circuit = build_rc_ladder(4)
        counts = circuit.component_count()
        assert counts["Resistor"] == 4 and counts["Capacitor"] == 4

    def test_rc_ladder_requires_sections(self):
        with pytest.raises(ValueError):
            build_rc_ladder(0)

    def test_diode_limiter_clipping_levels(self):
        from repro.circuit.waveforms import Sine
        circuit = build_diode_limiter(input_waveform=Sine(0.0, 2.0, 1e6))
        result = transient_analysis(circuit.build(), TransientOptions(t_stop=2e-6, dt=4e-9))
        assert result.outputs.max() < 1.1
        assert result.outputs.min() > -1.1

    def test_differential_amplifier_gain_sign(self):
        circuit = build_differential_amplifier()
        system = circuit.build()
        ac = ac_analysis(system, frequency_grid(1e6, 1e10, 4))
        assert ac.dc_gain() > 0.5

    def test_buffer_component_count_matches_paper_scale(self):
        circuit = build_output_buffer()
        counts = circuit.component_count()
        transistors = counts.get("NMOS", 0) + counts.get("PMOS", 0)
        assert 25 <= transistors <= 35          # paper: 27 transistors
        assert 55 <= len(circuit) <= 80         # paper: ~70 components

    def test_buffer_dc_gain_close_to_two(self):
        system = build_output_buffer().build()
        ac = ac_analysis(system, frequency_grid(1e5, 30e9, 6))
        assert ac.dc_gain() == pytest.approx(2.0, rel=0.3)

    def test_buffer_bandwidth_in_ghz_range(self):
        system = build_output_buffer().build()
        ac = ac_analysis(system, frequency_grid(1e5, 30e9, 6))
        assert 1.5e9 < ac.bandwidth() < 8e9      # paper: 3 GHz

    def test_buffer_output_saturates_for_large_inputs(self):
        high = dc_operating_point(build_output_buffer(input_waveform=1.4, name="hi").build())
        low = dc_operating_point(build_output_buffer(input_waveform=0.4, name="lo").build())
        mid = dc_operating_point(build_output_buffer(input_waveform=0.9, name="mid").build())
        assert abs(mid.outputs[0]) < 0.02
        assert high.outputs[0] > 0.1
        assert low.outputs[0] < -0.1
        # Saturation: doubling the overdrive barely changes the output.
        higher = dc_operating_point(build_output_buffer(input_waveform=1.3, name="hi2").build())
        assert high.outputs[0] == pytest.approx(higher.outputs[0], rel=0.05)

    def test_buffer_dc_converges_with_plain_newton(self):
        result = dc_operating_point(build_output_buffer().build())
        assert result.strategy == "newton"

    def test_training_waveform_covers_paper_state_range(self):
        wave = buffer_training_waveform()
        t = np.linspace(0, 1 / wave.frequency, 500)
        values = np.array([wave(ti) for ti in t])
        assert values.min() == pytest.approx(0.4, abs=1e-3)
        assert values.max() == pytest.approx(1.4, abs=1e-3)

    def test_test_pattern_rate_and_levels(self):
        pattern = buffer_test_pattern(n_bits=8, bit_rate=2.5e9)
        assert pattern.duration == pytest.approx(8 / 2.5e9)
        assert pattern.low == pytest.approx(0.5)
        assert pattern.high == pytest.approx(1.3)

    def test_buffer_params_are_tunable(self):
        params = BufferParams(n_stages=2)
        circuit = build_output_buffer(params, name="two_stage")
        counts = circuit.component_count()
        transistors = counts.get("NMOS", 0)
        assert transistors < 25

    def test_buffer_summary_string(self):
        assert "output_buffer" in build_output_buffer().summary()
