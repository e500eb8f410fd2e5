"""Tests for residue functions, analytic integration, recursive fitting and the
Hammerstein model — the core of the RVF reproduction."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.rvf import (
    HammersteinBranch,
    HammersteinModel,
    PartialFractionFunction,
    basis_primitive,
    fit_residue_trajectories,
    simulate_hammerstein,
)
from repro.rvf.timedomain import phi1, phi2


class TestBasisPrimitive:
    def test_derivative_matches_basis_function(self):
        pole = -0.3 + 0.7j
        u = np.linspace(-1, 2, 200)
        primitive = basis_primitive(u, pole)
        numeric = np.gradient(primitive, u)
        expected = 1.0 / (1j * u - pole)
        assert np.allclose(numeric[5:-5], expected[5:-5], rtol=1e-3)

    def test_smooth_across_pole_imaginary_part(self):
        # With Re(b) != 0 the primitive must be continuous even where u passes
        # Im(b) (no branch-cut jump).
        pole = 0.05 + 0.9j
        u = np.linspace(0.8, 1.0, 400)
        values = basis_primitive(u, pole)
        assert np.max(np.abs(np.diff(values))) < 0.2

    def test_scalar_input_returns_complex(self):
        assert isinstance(basis_primitive(0.3, -1 + 1j), complex)

    def test_pole_on_imaginary_axis_rejected(self):
        with pytest.raises(ModelError):
            basis_primitive(0.5, 1j * 0.7)


class TestPartialFractionFunction:
    def test_evaluation(self):
        f = PartialFractionFunction([-1 + 0.5j], [2.0], constant=1.0)
        x = 0.7
        expected = 1.0 + 2.0 / (1j * x - (-1 + 0.5j))
        assert f(x) == pytest.approx(expected)

    def test_vectorised_evaluation(self):
        f = PartialFractionFunction([-1 + 0.5j, -0.2 - 0.3j], [1.0, 2.0])
        x = np.linspace(0, 1, 7)
        assert f(x).shape == (7,)

    def test_conjugate_function_values(self):
        f = PartialFractionFunction([-1 + 0.5j], [2.0 + 1j], constant=0.3 + 0.1j)
        x = np.linspace(-1, 1, 9)
        assert np.allclose(f.conjugate()(x), np.conj(f(x)))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ModelError):
            PartialFractionFunction([-1.0], [1.0, 2.0])

    def test_antiderivative_roundtrip(self):
        f = PartialFractionFunction([-0.5 + 0.8j, 0.3 - 0.6j], [1.2, -0.7 + 0.2j],
                                    constant=0.4)
        F = f.antiderivative()
        u = np.linspace(0.0, 2.0, 400)
        numeric = np.gradient(F(u), u)
        assert np.allclose(numeric[5:-5], f(u)[5:-5], rtol=1e-3, atol=1e-4)

    def test_integrated_with_value_at(self):
        f = PartialFractionFunction([-0.5 + 0.8j], [1.0])
        F = f.antiderivative().with_value_at(0.9, 2.5)
        assert F(0.9) == pytest.approx(2.5)

    def test_integrated_derivative_recovers_function(self):
        f = PartialFractionFunction([-0.5 + 0.8j], [1.0 + 2j], constant=0.1)
        g = f.antiderivative().derivative()
        x = np.linspace(0, 1, 5)
        assert np.allclose(g(x), f(x))

    def test_expression_rendering(self):
        f = PartialFractionFunction([-0.5 + 0.8j], [1.0], constant=0.25, variable="u")
        text = f.to_expression()
        assert "j*u" in text and "0.25" in text
        assert "atan" in f.antiderivative().to_expression()

    def test_is_effectively_real(self):
        # A function built from a (b, -conj(b)) pair with matched coefficients
        # is real on the real axis.
        b = 0.2 + 0.9j
        f = PartialFractionFunction([b, -np.conj(b)], [1j, 1j])
        x = np.linspace(0, 2, 20)
        assert np.max(np.abs(f(x).imag)) < 1e-12 * max(1, np.max(np.abs(f(x))))


class TestFitResidueTrajectories:
    def test_fits_smooth_real_function(self):
        x = np.linspace(0.4, 1.4, 90)
        target = 2.0 / (1.0 + np.exp(-8 * (x - 0.9)))
        functions, report = fit_residue_trajectories(
            x, target.astype(complex), 1e-3)
        fitted = functions[0](x)
        error = np.sqrt(np.mean(np.abs(fitted - target) ** 2)) / np.std(target)
        assert error < 2e-2

    def test_fits_multiple_functions_with_common_poles(self):
        x = np.linspace(-1, 1, 80)
        rows = np.array([np.tanh(3 * x), 1.0 / (1.0 + x ** 2), x ** 2]).astype(complex)
        functions, report = fit_residue_trajectories(
            x, rows, 1e-3)
        assert len(functions) == 3
        for f, row in zip(functions, rows):
            assert np.sqrt(np.mean(np.abs(f(x) - row) ** 2)) < 5e-2
        # Common poles: every function shares the report's pole set.
        for f in functions:
            assert np.allclose(f.poles, report.poles)

    def test_complex_valued_trajectory(self):
        x = np.linspace(0, 1, 70)
        row = (np.tanh(4 * (x - 0.5)) + 1j * np.exp(-10 * (x - 0.5) ** 2)).astype(complex)
        functions, _ = fit_residue_trajectories(
            x, row, 1e-3)
        error = np.sqrt(np.mean(np.abs(functions[0](x) - row) ** 2))
        assert error < 5e-2

    def test_poles_are_integrable(self):
        x = np.linspace(0.4, 1.4, 60)
        target = np.exp(-30 * (x - 0.9) ** 2).astype(complex)
        _, report = fit_residue_trajectories(x, target, 1e-4)
        assert np.all(np.abs(report.poles.real) > 0)

    def test_report_orders_monotone(self):
        x = np.linspace(0, 1, 50)
        target = np.tanh(5 * (x - 0.5)).astype(complex)
        _, report = fit_residue_trajectories(x, target, 1e-3)
        assert report.orders_tried == sorted(report.orders_tried)

    def test_too_few_samples_rejected(self):
        from repro.exceptions import FittingError
        with pytest.raises(FittingError):
            fit_residue_trajectories(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


def make_linear_model(pole=-2e9, residue=3e9, gain=0.2, dc_input=0.5, dc_output=0.0):
    """Single-real-pole Hammerstein model with *linear* static blocks."""
    residue_function = PartialFractionFunction([-100.0 + 1j], [0.0], constant=residue)
    static = residue_function.antiderivative().with_value_at(dc_input, 0.0)
    branch = HammersteinBranch(pole=pole, residue_function=residue_function,
                               static_function=static, is_complex_pair=False)
    gain_function = PartialFractionFunction([-100.0 + 1j], [0.0], constant=gain)
    static_path = gain_function.antiderivative().with_value_at(dc_input, dc_output)
    return HammersteinModel([branch], gain_function, static_path, dc_input, dc_output)


class TestHammersteinModel:
    def test_unstable_branch_rejected(self):
        f = PartialFractionFunction([-1 + 1j], [1.0])
        with pytest.raises(ModelError):
            HammersteinBranch(pole=+1e9, residue_function=f,
                              static_function=f.antiderivative(), is_complex_pair=False)

    def test_model_is_stable_by_construction(self):
        assert make_linear_model().is_stable()

    def test_transfer_function_of_linear_model(self):
        model = make_linear_model(pole=-2e9, residue=3e9, gain=0.2)
        freqs = np.array([1e6, 1e9, 5e9])
        surface = model.transfer_function(np.array([0.5]), freqs)
        expected = 0.2 + 3e9 / (2j * np.pi * freqs - (-2e9))
        assert np.allclose(surface[0], expected, rtol=1e-9)

    def test_dc_transfer(self):
        model = make_linear_model(pole=-2e9, residue=3e9, gain=0.2)
        dc = model.dc_transfer(np.array([0.5]))
        assert dc[0] == pytest.approx(0.2 + 3e9 / 2e9)

    def test_complex_pair_branch_contributes_conjugate(self):
        f = PartialFractionFunction([-100.0 + 1j], [0.0], constant=1e9 + 5e8j)
        branch = HammersteinBranch(pole=-1e9 + 3e9j, residue_function=f,
                                   static_function=f.antiderivative(), is_complex_pair=True)
        s = 2j * np.pi * np.array([2e9])
        value = branch.small_signal(np.array([0.0]), s)[0, 0]
        expected = (1e9 + 5e8j) / (s[0] + 1e9 - 3e9j) + (1e9 - 5e8j) / (s[0] + 1e9 + 3e9j)
        assert value == pytest.approx(expected)

    def test_frequency_poles_include_conjugates(self):
        f = PartialFractionFunction([-100.0 + 1j], [0.0], constant=1.0)
        branch = HammersteinBranch(pole=-1e9 + 3e9j, residue_function=f,
                                   static_function=f.antiderivative(), is_complex_pair=True)
        model = HammersteinModel([branch], f, f.antiderivative(), 0.0, 0.0)
        assert model.frequency_poles.size == 2
        assert model.dynamic_order == 2

    def test_describe_mentions_branch_count(self):
        model = make_linear_model()
        assert "1 branches" in model.describe()


class TestTimeDomainSimulation:
    def test_phi_functions_small_argument_series(self):
        assert phi1(1e-12) == pytest.approx(1.0, rel=1e-9)
        assert phi2(1e-12) == pytest.approx(0.5, rel=1e-9)

    def test_phi_functions_large_argument(self):
        z = -50.0
        assert phi1(z) == pytest.approx((np.exp(z) - 1) / z)
        assert phi2(z) == pytest.approx((np.exp(z) - 1 - z) / z ** 2)

    def test_linear_model_step_response(self):
        # dy/dt = a y + r*u with u stepping from 0.5 to 1.5 => first-order step.
        pole, residue = -2e9, 3e9
        model = make_linear_model(pole=pole, residue=residue, gain=0.0, dc_input=0.5)
        times = np.linspace(0, 5e-9, 2001)
        inputs = np.where(times > 0.5e-9, 1.5, 0.5)
        result = simulate_hammerstein(model, times, inputs)
        # Analytic: y settles to (-residue/pole) * (u - u_dc) relative to start.
        final_expected = (-residue / pole) * (1.5 - 0.5)
        assert result.outputs[-1] == pytest.approx(final_expected, rel=1e-3)
        tau_index = np.searchsorted(times, 0.5e-9 + 1.0 / abs(pole))
        assert result.outputs[tau_index] == pytest.approx(final_expected * (1 - np.exp(-1)),
                                                          rel=2e-2)

    def test_equilibrium_initial_condition(self):
        model = make_linear_model()
        times = np.linspace(0, 1e-9, 101)
        inputs = np.full_like(times, model.dc_input)
        result = simulate_hammerstein(model, times, inputs)
        assert np.allclose(result.outputs, model.dc_output, atol=1e-12)

    def test_callable_input(self):
        model = make_linear_model()
        times = np.linspace(0, 1e-9, 101)
        result = simulate_hammerstein(model, times, lambda t: 0.5)
        assert result.n_points == 101

    def test_non_uniform_time_grid(self):
        model = make_linear_model(pole=-1e9, residue=1e9, gain=0.0)
        times = np.concatenate([np.linspace(0, 1e-9, 50), np.linspace(1.05e-9, 12e-9, 80)])
        inputs = np.where(times > 0.2e-9, 1.0, 0.5)
        result = simulate_hammerstein(model, times, inputs)
        # Settled value: (-residue/pole) * (1.0 - 0.5) = 0.5 after >> tau = 1 ns.
        assert result.outputs[-1] == pytest.approx(0.5, rel=1e-2)

    def test_invalid_inputs_rejected(self):
        model = make_linear_model()
        with pytest.raises(ModelError):
            simulate_hammerstein(model, np.array([0.0, 1e-9]), np.array([1.0]))
        with pytest.raises(ModelError):
            simulate_hammerstein(model, np.array([0.0]), np.array([1.0]))
        with pytest.raises(ModelError):
            simulate_hammerstein(model, np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def test_model_simulate_method_matches_function(self):
        model = make_linear_model()
        times = np.linspace(0, 1e-9, 51)
        inputs = np.linspace(0.5, 1.0, 51)
        assert np.allclose(model.simulate(times, inputs),
                           simulate_hammerstein(model, times, inputs).outputs)
