"""Tests for the MNA assembly and the DC / AC / transient analyses."""

import numpy as np
import pytest

import repro.circuit.dc as dc_module
import repro.circuit.newton as newton_module
from repro.circuit import (
    Circuit,
    Sine,
    TransientOptions,
    ac_analysis,
    dc_operating_point,
    frequency_grid,
    newton_solve,
    transient_analysis,
)
from repro.circuit.waveforms import Pulse
from repro.circuits import (build_common_source_amplifier, build_differential_amplifier,
                            build_diode_limiter, build_output_buffer, build_rc_ladder)
from repro.exceptions import CircuitError, ConvergenceError


def voltage_divider(ratio_top=1e3, ratio_bottom=1e3):
    circuit = Circuit("divider")
    circuit.voltage_source("Vin", "in", "0", 2.0, is_input=True)
    circuit.resistor("R1", "in", "out", ratio_top)
    circuit.resistor("R2", "out", "0", ratio_bottom)
    circuit.add_output("vout", "out")
    return circuit


def mixed_sources(input_waveform):
    """Time-varying fixed sources, two of them stamping the same node."""
    circuit = Circuit("mixed_sources")
    circuit.voltage_source("Vin", "in", "0", input_waveform, is_input=True)
    circuit.voltage_source("VDD", "vdd", "0", Sine(1.2, 0.1, 5e6))
    circuit.resistor("R1", "in", "mid", 1e3)
    circuit.resistor("R2", "vdd", "mid", 2e3)
    circuit.current_source("I1", "mid", "0", Pulse(0.0, 1e-4, 1e-7, 1e-8, 1e-8, 2e-7, 5e-7))
    circuit.current_source("I2", "0", "mid", Sine(3e-5, 2e-5, 7e6))
    circuit.capacitor("C1", "mid", "0", 1e-12)
    circuit.add_output("vmid", "mid")
    return circuit


class TestMNASystem:
    def test_unknown_counts(self):
        system = voltage_divider().build()
        assert system.n_nodes == 2
        assert system.n_branches == 1
        assert system.n_unknowns == 3

    def test_labels(self):
        labels = voltage_divider().build().unknown_labels()
        assert "v(in)" in labels and "v(out)" in labels and "i(Vin)" in labels

    def test_input_matrix_shape(self):
        system = voltage_divider().build()
        assert system.input_matrix.shape == (3, 1)

    def test_output_matrix_selects_node(self):
        system = voltage_divider().build()
        out_col = system.output_matrix[:, 0]
        assert out_col[system.node_index["out"]] == 1.0
        assert np.sum(np.abs(out_col)) == 1.0

    def test_differential_output(self):
        circuit = voltage_divider()
        circuit.add_output("vdiff", "in", "out")
        system = circuit.build()
        assert system.n_outputs == 2
        col = system.output_matrix[:, 1]
        assert col[system.node_index["in"]] == 1.0
        assert col[system.node_index["out"]] == -1.0

    def test_requires_input_source(self):
        circuit = Circuit("no_input")
        circuit.voltage_source("V1", "a", "0", 1.0)
        circuit.resistor("R1", "a", "0", 1e3)
        circuit.add_output("va", "a")
        with pytest.raises(CircuitError):
            circuit.build()

    def test_requires_output(self):
        circuit = Circuit("no_output")
        circuit.voltage_source("V1", "a", "0", 1.0, is_input=True)
        circuit.resistor("R1", "a", "0", 1e3)
        with pytest.raises(CircuitError):
            circuit.build()

    def test_duplicate_device_name_rejected(self):
        circuit = Circuit("dup")
        circuit.resistor("R1", "a", "0", 1.0)
        with pytest.raises(CircuitError):
            circuit.resistor("R1", "b", "0", 1.0)

    def test_excitation_combines_inputs_and_fixed_sources(self):
        circuit = Circuit("mixed")
        circuit.voltage_source("VDD", "vdd", "0", 1.2)
        circuit.voltage_source("Vin", "in", "0", 0.4, is_input=True)
        circuit.resistor("R1", "vdd", "in", 1e3)
        circuit.add_output("vin", "in")
        system = circuit.build()
        excitation = system.excitation(0.0)
        assert excitation.sum() == pytest.approx(1.2 + 0.4)

    @pytest.mark.parametrize("build", [
        build_rc_ladder, build_diode_limiter, build_common_source_amplifier,
        build_differential_amplifier, build_output_buffer,
        lambda input_waveform: mixed_sources(input_waveform)])
    def test_source_vector_equals_the_all_device_loop(self, build):
        """Only excitation-stamping devices are visited, in device order."""
        system = build(input_waveform=Sine(0.6, 0.2, 3e6)).build()
        for t in np.random.default_rng(5).uniform(0.0, 1e-6, 6):
            reference = np.zeros(system.n_unknowns)
            for device in system.circuit.devices:
                device.stamp_rhs(t, reference)
            np.testing.assert_array_equal(system.source_vector(t).view(np.uint64),
                                          reference.view(np.uint64))

    def test_component_count_summary(self):
        counts = voltage_divider().component_count()
        assert counts["Resistor"] == 2
        assert counts["VoltageSource"] == 1


class TestNewton:
    def test_solves_linear_system_in_one_iteration(self, monkeypatch):
        monkeypatch.setattr(newton_module, "MAX_STEP", 10.0)
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        b = np.array([2.0, 8.0])

        def f(v):
            return a @ v - b, a

        result = newton_solve(f, np.zeros(2))
        assert result.converged
        assert result.solution == pytest.approx([1.0, 2.0])

    def test_solves_scalar_nonlinear_equation(self, monkeypatch):
        monkeypatch.setattr(newton_module, "MAX_STEP", 5.0)

        def f(v):
            return np.array([v[0] ** 3 - 8.0]), np.array([[3.0 * v[0] ** 2]])

        result = newton_solve(f, np.array([1.0]))
        assert result.converged
        assert result.solution[0] == pytest.approx(2.0)

    def test_reports_non_convergence(self, monkeypatch):
        monkeypatch.setattr(newton_module, "MAX_STEP", 0.1)

        def f(v):
            return np.array([np.sign(v[0]) * 1.0 + 1e-3]), np.array([[1e-12]])

        result = newton_solve(f, np.array([0.5]), max_iterations=5)
        assert not result.converged


class TestDCAnalysis:
    def test_voltage_divider(self):
        result = dc_operating_point(voltage_divider().build())
        assert result.outputs[0] == pytest.approx(1.0)

    def test_unequal_divider(self):
        result = dc_operating_point(voltage_divider(3e3, 1e3).build())
        assert result.outputs[0] == pytest.approx(0.5)

    def test_voltage_lookup_by_node(self):
        system = voltage_divider().build()
        result = dc_operating_point(system)
        assert result.voltage(system, "in") == pytest.approx(2.0)
        assert result.voltage(system, "0") == 0.0

    def test_diode_forward_drop(self):
        circuit = Circuit("diode_dc")
        circuit.voltage_source("Vin", "in", "0", 1.0, is_input=True)
        circuit.resistor("R1", "in", "d", 1e3)
        circuit.diode("D1", "d", "0")
        circuit.add_output("vd", "d")
        result = dc_operating_point(circuit.build())
        assert 0.4 < result.outputs[0] < 0.8

    def test_strategy_reported(self):
        result = dc_operating_point(voltage_divider().build())
        assert result.strategy in ("newton", "gmin-stepping", "source-stepping")

    def test_current_source_into_resistor(self):
        circuit = Circuit("isrc")
        circuit.current_source("I1", "0", "a", 1e-3, is_input=True)
        circuit.resistor("R1", "a", "0", 1e3)
        circuit.add_output("va", "a")
        result = dc_operating_point(circuit.build())
        assert result.outputs[0] == pytest.approx(1.0)

    def test_initial_guess_is_used(self):
        system = voltage_divider().build()
        guess = np.array([2.0, 1.0, -1e-3])
        result = dc_operating_point(system, initial_guess=guess)
        assert result.converged if hasattr(result, "converged") else True
        assert result.outputs[0] == pytest.approx(1.0)

    def test_time_dependent_source_evaluated_at_t(self):
        circuit = Circuit("sine_dc")
        circuit.voltage_source("Vin", "a", "0", Sine(offset=1.0, amplitude=0.5, frequency=1e6),
                               is_input=True)
        circuit.resistor("R1", "a", "0", 1e3)
        circuit.add_output("va", "a")
        system = circuit.build()
        at_zero = dc_operating_point(system, t=0.0)
        at_quarter = dc_operating_point(system, t=0.25e-6)
        assert at_zero.outputs[0] == pytest.approx(1.0)
        assert at_quarter.outputs[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("budget, strategy", [
        (6, "newton"), (5, "gmin-stepping"), (4, "source-stepping"), (1, None)])
    def test_iteration_budget_walks_the_strategy_chain(self, monkeypatch, budget,
                                                       strategy):
        """Each tighter Newton budget defeats one more strategy of the chain;
        when source stepping fails too, the error names it."""
        solve = dc_module.newton_solve
        monkeypatch.setattr(dc_module, "newton_solve",
                            lambda f, guess, **kwargs: solve(f, guess, budget, **kwargs))
        system = build_common_source_amplifier().build()
        if strategy is None:
            with pytest.raises(ConvergenceError, match="during source stepping"):
                dc_operating_point(system)
        else:
            assert dc_operating_point(system).strategy == strategy


class TestACAnalysis:
    def test_frequency_grid_bounds(self):
        grid = frequency_grid(1e3, 1e6, 10)
        assert grid[0] == pytest.approx(1e3)
        assert grid[-1] == pytest.approx(1e6)

    def test_frequency_grid_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            frequency_grid(1e6, 1e3)

    def test_rc_low_pass_gain_and_bandwidth(self):
        circuit = build_rc_ladder(n_sections=1, resistance=1e3, capacitance=1e-9)
        result = ac_analysis(circuit.build(), frequency_grid(1e2, 1e8, 20))
        assert result.dc_gain() == pytest.approx(1.0, rel=1e-3)
        expected_bw = 1.0 / (2 * np.pi * 1e3 * 1e-9)
        assert result.bandwidth() == pytest.approx(expected_bw, rel=0.05)

    def test_rc_phase_approaches_minus_90(self):
        circuit = build_rc_ladder(n_sections=1, resistance=1e3, capacitance=1e-9)
        result = ac_analysis(circuit.build(), frequency_grid(1e2, 1e9, 10))
        assert result.phase_deg()[-1] == pytest.approx(-90.0, abs=5.0)

    def test_three_section_ladder_rolls_off_faster(self):
        one = ac_analysis(build_rc_ladder(1).build(), frequency_grid(1e5, 1e10, 10))
        three = ac_analysis(build_rc_ladder(3).build(), frequency_grid(1e5, 1e10, 10))
        assert three.gain_db()[-1] < one.gain_db()[-1] - 20.0

    def test_voltage_divider_is_frequency_flat(self):
        result = ac_analysis(voltage_divider().build(), frequency_grid(1e3, 1e9, 5))
        assert np.allclose(np.abs(result.transfer()), 0.5, rtol=1e-6)


class TestTransientAnalysis:
    def test_rc_step_response_matches_analytic(self):
        from repro.circuit.waveforms import Pulse
        circuit = Circuit("rc_step")
        circuit.voltage_source("Vin", "in", "0",
                               Pulse(initial=0.0, pulsed=1.0, delay=0.0, rise=1e-12,
                                     width=1.0, period=2.0), is_input=True)
        circuit.resistor("R1", "in", "out", 1e3)
        circuit.capacitor("C1", "out", "0", 1e-9)
        circuit.add_output("vout", "out")
        system = circuit.build()
        tau = 1e-6
        result = transient_analysis(system, TransientOptions(t_stop=5e-6, dt=1e-8))
        expected = 1.0 - np.exp(-result.times / tau)
        assert np.max(np.abs(result.outputs[:, 0] - expected)) < 5e-3

    def test_sine_steady_state_amplitude(self):
        circuit = build_rc_ladder(1, resistance=1e3, capacitance=1e-9,
                                  input_waveform=Sine(0.0, 1.0, 159.155e3))
        system = circuit.build()
        # Drive exactly at the corner frequency: steady-state amplitude 1/sqrt(2).
        result = transient_analysis(system, TransientOptions(t_stop=40e-6, dt=20e-9))
        steady = result.outputs[result.times > 20e-6, 0]
        assert np.max(steady) == pytest.approx(1 / np.sqrt(2), rel=0.03)

    def test_trapezoidal_more_accurate_than_backward_euler(self):
        def run(method):
            circuit = build_rc_ladder(1, input_waveform=Sine(0.0, 1.0, 50e6),
                                      name=f"rc_{method}")
            options = TransientOptions(t_stop=100e-9, dt=0.5e-9, method=method)
            return transient_analysis(circuit.build(), options)

        trap = run("trapezoidal")
        be = run("backward_euler")
        reference_circuit = build_rc_ladder(1, input_waveform=Sine(0.0, 1.0, 50e6),
                                            name="rc_ref")
        reference = transient_analysis(reference_circuit.build(),
                                       TransientOptions(t_stop=100e-9, dt=0.05e-9))
        ref = np.interp(trap.times, reference.times, reference.outputs[:, 0])
        err_trap = np.sqrt(np.mean((trap.outputs[:, 0] - ref) ** 2))
        ref_be = np.interp(be.times, reference.times, reference.outputs[:, 0])
        err_be = np.sqrt(np.mean((be.outputs[:, 0] - ref_be) ** 2))
        assert err_trap < err_be

    def test_inductor_current_ramp(self):
        circuit = Circuit("rl")
        circuit.voltage_source("Vin", "in", "0", 1.0, is_input=True)
        circuit.resistor("R1", "in", "a", 1.0)
        circuit.inductor("L1", "a", "0", 1e-6)
        circuit.add_output("va", "a")
        system = circuit.build()
        result = transient_analysis(system, TransientOptions(t_stop=5e-6, dt=5e-9))
        # After several time constants (tau = L/R = 1 us) the node voltage -> 0.
        assert abs(result.outputs[-1, 0]) < 0.02

    def test_snapshot_callback_receives_jacobians(self):
        from repro.tft import SnapshotTrajectory
        circuit = build_rc_ladder(1, input_waveform=Sine(0.5, 0.2, 1e6))
        system = circuit.build()
        trajectory = SnapshotTrajectory(system)
        result = transient_analysis(system, TransientOptions(t_stop=1e-6, dt=1e-8),
                                    snapshot_callback=trajectory)
        assert len(trajectory) == result.n_points
        snap = trajectory[0]
        assert snap.conductance.shape == (system.n_unknowns, system.n_unknowns)
        assert snap.capacitance.shape == (system.n_unknowns, system.n_unknowns)

    def test_diode_limiter_clips(self):
        circuit = build_diode_limiter(input_waveform=Sine(0.0, 2.0, 1e6))
        result = transient_analysis(circuit.build(),
                                    TransientOptions(t_stop=2e-6, dt=2e-9))
        assert result.outputs.max() < 1.2
        assert result.outputs.min() > -1.2
        assert result.outputs.max() > 0.3

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            TransientOptions(t_stop=0.0, dt=1e-9).validate()
        with pytest.raises(ValueError):
            TransientOptions(t_stop=1e-9, dt=-1.0).validate()
        with pytest.raises(ValueError):
            TransientOptions(t_stop=1e-9, dt=1e-12, method="rk4").validate()

    def test_node_voltage_accessor(self):
        circuit = build_rc_ladder(2, input_waveform=Sine(0.5, 0.1, 1e6))
        system = circuit.build()
        result = transient_analysis(system, TransientOptions(t_stop=0.2e-6, dt=2e-9))
        v1 = result.node_voltage(system, "n1")
        assert v1.shape == result.times.shape

    def test_resample_interpolates_output(self):
        circuit = build_rc_ladder(1, input_waveform=Sine(0.5, 0.1, 1e6))
        result = transient_analysis(circuit.build(), TransientOptions(t_stop=0.2e-6, dt=2e-9))
        new_times = np.linspace(0.0, 0.2e-6, 17)
        assert result.resample(new_times).shape == (17,)
