"""Tests for the vector fitting engine and pole utilities."""

import numpy as np
import pytest

from repro.exceptions import FittingError
from repro.vectfit import (
    basis_matrix,
    coefficients_to_residues,
    evaluate_model,
    fit_auto_order,
    flip_unstable,
    initial_complex_poles,
    initial_state_poles,
    residues_to_coefficients,
    sort_poles,
    split_real_complex,
    vector_fit,
)
from repro.vectfit import vectorfit
from repro.vectfit.poles import enforce_conjugate_closure
from repro.vectfit.vectorfit import (
    MIN_RELAXATION_MAGNITUDE,
    _canonical_order,
    _identify_residues,
    _relocate_poles,
    _separate_poles_from_samples,
    _sigma_zeros,
)


def synthetic_response(svals, poles, residues, constant=0.0):
    svals = np.asarray(svals, dtype=complex)
    values = np.full(svals.shape, complex(constant), dtype=complex)
    for p, r in zip(poles, residues):
        values = values + r / (svals - p)
    return values


def per_pair_basis(svals, poles):
    """Reference basis: one column per real pole, one pair of columns per
    conjugate pair."""
    svals = np.asarray(svals, dtype=complex).ravel()
    poles = np.asarray(poles, dtype=complex)
    real_idx, pair_idx = split_real_complex(poles)
    columns = [1.0 / (svals - poles[i]) for i in real_idx]
    for i in pair_idx:
        phi_plus = 1.0 / (svals - poles[i])
        phi_minus = 1.0 / (svals - np.conj(poles[i]))
        columns += [phi_plus + phi_minus, 1j * phi_plus - 1j * phi_minus]
    if not columns:
        return np.zeros((svals.size, 0), dtype=complex)
    return np.column_stack(columns)


def per_pole_separation(poles, svals):
    """Reference sample separation: one pole at a time, in scalar arithmetic."""
    poles = np.array(poles, dtype=complex, copy=True)
    min_distance = 1e-6 * (float(np.max(np.abs(svals))) or 1.0)
    moved = False
    for i, pole in enumerate(poles):
        distances = np.abs(svals - pole)
        j = int(np.argmin(distances))
        if distances[j] >= min_distance:
            continue
        moved = True
        direction = pole - svals[j]
        if pole.imag == 0.0:
            sign = 1.0 if direction.real >= 0.0 else -1.0
            poles[i] = complex(svals[j].real + sign * min_distance, 0.0)
        elif abs(direction) == 0.0:
            poles[i] = svals[j] + (1j if pole.imag >= 0 else -1j) * min_distance
        else:
            poles[i] = svals[j] + direction / abs(direction) * min_distance
    return sort_poles(poles) if moved else poles


def per_response_relocation(svals, data, poles, relaxed):
    """Reference pole relocation (stability enforced): one QR (and
    projection) per response."""
    phi_sigma = basis_matrix(svals, poles)
    phi_num = np.column_stack([phi_sigma, np.ones_like(svals, dtype=complex)])
    n_num, n_sig = phi_num.shape[1], phi_sigma.shape[1]
    rows, rhs_parts = [], []
    for k in range(data.shape[0]):
        h = data[k][:, None]
        sigma_block = -phi_sigma * h
        if relaxed:
            sigma_block = np.column_stack([sigma_block, -h])
        block = np.column_stack([phi_num, sigma_block])
        rhs = np.zeros(block.shape[0], dtype=complex) if relaxed else data[k]
        block = np.vstack([block.real, block.imag])
        rhs = np.concatenate([rhs.real, rhs.imag])
        q, r = np.linalg.qr(block, mode="reduced")
        rows.append(r[n_num:, n_num:])
        if relaxed:
            rhs_parts.append(np.zeros(r.shape[0] - n_num))
        else:
            rhs_parts.append((q.T @ rhs)[n_num:])
    lhs = np.vstack(rows)
    rhs_vec = np.concatenate(rhs_parts)
    if relaxed:
        total = data.size
        scale = float(np.linalg.norm(data)) / max(total, 1)
        sigma_full = np.column_stack([phi_sigma, np.ones_like(svals, dtype=complex)])
        sums = np.sum(sigma_full.real, axis=0)
        lhs = np.vstack([lhs, (scale * sums * data.shape[0])[None, :]])
        rhs_vec = np.concatenate([rhs_vec, [scale * total]])
    solution, *_ = np.linalg.lstsq(lhs, rhs_vec, rcond=None)
    d_tilde = 1.0
    if relaxed:
        d_tilde = float(solution[n_sig])
        if abs(d_tilde) < MIN_RELAXATION_MAGNITUDE:
            return per_response_relocation(svals, data, poles, relaxed=False)
    new_poles = flip_unstable(_sigma_zeros(poles, solution[:n_sig], d_tilde))
    return _canonical_order(new_poles), abs(d_tilde)


def assert_relocation_matches_reference(svals, data, poles, relaxed, n_steps):
    """Run ``n_steps`` relocations as vector_fit does, each against the loop."""
    poles = _separate_poles_from_samples(_canonical_order(poles), svals)
    for _ in range(n_steps):
        expected_poles, expected_d = per_response_relocation(svals, data, poles, relaxed)
        new_poles, d_abs = _relocate_poles(svals, data, poles, True, relaxed=relaxed)
        assert np.array_equal(new_poles, expected_poles)
        assert d_abs == expected_d
        poles = _separate_poles_from_samples(new_poles, svals)


class TestPoleUtilities:
    def test_initial_complex_poles_are_conjugate_pairs(self):
        poles = initial_complex_poles(1e3, 1e9, 8)
        assert len(poles) == 8
        real_idx, pair_idx = split_real_complex(sort_poles(poles))
        assert len(pair_idx) == 4 and len(real_idx) == 0

    def test_initial_complex_poles_odd_order_adds_real_pole(self):
        poles = initial_complex_poles(1e3, 1e9, 5)
        assert np.sum(poles.imag == 0) == 1

    def test_initial_complex_poles_are_stable(self):
        assert np.all(initial_complex_poles(1e3, 1e9, 10).real < 0)

    def test_initial_complex_poles_invalid_range(self):
        with pytest.raises(FittingError):
            initial_complex_poles(1e9, 1e3, 4)

    def test_initial_state_poles_straddle_interval(self):
        poles = initial_state_poles(0.4, 1.4, 6)
        assert len(poles) == 6
        assert poles.real.min() >= 0.4 - 1e-12
        assert poles.real.max() <= 1.4 + 1e-12
        assert np.all(poles.imag != 0)

    def test_flip_unstable_mirrors_real_part(self):
        poles = np.array([1e3 + 2e3j, -5.0 + 0j])
        flipped = flip_unstable(poles)
        assert np.all(flipped.real < 0)
        assert flipped[0].imag == pytest.approx(2e3)

    def test_sort_poles_orders_pairs_adjacent(self):
        poles = np.array([-1 + 5j, -3.0, -1 - 5j])
        ordered = sort_poles(poles)
        assert ordered[0] == -3.0
        assert ordered[1] == np.conj(ordered[2])

    def test_enforce_conjugate_closure_repairs_asymmetry(self):
        poles = np.array([-1 + 5j, -1.0000001 - 4.9999999j, -2.0])
        closed = enforce_conjugate_closure(poles)
        complex_poles = closed[closed.imag != 0]
        assert len(complex_poles) == 2
        assert complex_poles[0] == np.conj(complex_poles[1])

    def test_enforce_conjugate_closure_collapses_orphans(self):
        poles = np.array([-1 + 5j, -2.0])
        closed = enforce_conjugate_closure(poles)
        assert np.all(closed.imag == 0)


class TestBasis:
    def test_real_mode_pair_columns_give_conjugate_residues(self):
        poles = sort_poles(np.array([-1 + 2j, -1 - 2j, -3 + 0j]))
        coeffs = np.array([0.5, 1.5, -2.0])  # [real pole, pair cr, pair ci]
        residues = coefficients_to_residues(coeffs, poles)
        real_idx, pair_idx = split_real_complex(poles)
        i = pair_idx[0]
        assert residues[i] == pytest.approx(np.conj(residues[i + 1]))

    def test_coefficients_roundtrip(self):
        poles = sort_poles(np.array([-2.0, -1 + 3j, -1 - 3j]))
        coeffs = np.array([1.0, 0.3, -0.8])
        residues = coefficients_to_residues(coeffs, poles)
        back = residues_to_coefficients(residues, poles)
        assert back == pytest.approx(coeffs)

    def test_real_mode_model_is_conjugate_symmetric(self):
        poles = sort_poles(np.array([-1 + 3j, -1 - 3j]))
        coeffs = np.array([0.7, 0.2])
        residues = coefficients_to_residues(coeffs, poles)
        s = np.array([2j, -2j])
        values = evaluate_model(s, poles, residues[None, :])[0]
        assert values[0] == pytest.approx(np.conj(values[1]))

    BASIS_POLES = {
        "empty": np.zeros(0, dtype=complex),
        "real-only": np.array([-3.0, -2e3, -7e6], dtype=complex),
        "pair-only": sort_poles(np.array([-1 + 2j, -1 - 2j, -2e3 + 7e4j, -2e3 - 7e4j])),
        "mixed": sort_poles(np.array([-0.5, -1 + 2j, -1 - 2j, -4e5, -1e6 + 3e8j,
                                      -1e6 - 3e8j, 0.9 + 0.2j, 0.9 - 0.2j])),
    }

    @pytest.mark.parametrize("axis", ["frequency", "state"])
    @pytest.mark.parametrize("pole_set", sorted(BASIS_POLES))
    def test_matches_per_pair_reference_bitwise(self, pole_set, axis):
        if axis == "frequency":
            svals = 2j * np.pi * np.logspace(0, 10, 41)
        else:
            svals = np.linspace(0.4, 1.4, 110).astype(complex)
        poles = self.BASIS_POLES[pole_set]
        phi = basis_matrix(svals, poles)
        expected = per_pair_basis(svals, poles)
        assert phi.shape == expected.shape == (svals.size, poles.size)
        # Compared as floats, so the signs of zeros count too.
        assert np.array_equal(phi.view(float), expected.view(float))


class TestPoleSeparation:
    STATES = np.linspace(0.4, 1.4, 21).astype(complex)      # state-axis fits
    SVALS = 2j * np.pi * np.logspace(0, 10, 41)             # frequency-axis fits

    @staticmethod
    def min_distance(svals):
        return 1e-6 * np.max(np.abs(svals))

    @pytest.mark.parametrize("offset, side", [(0.0, 1.0), (-1e-9, -1.0), (1e-9, 1.0)])
    def test_real_pole_on_sample_moves_along_real_axis(self, offset, side):
        sample = self.STATES[7]
        moved = _separate_poles_from_samples(np.array([sample + offset]), self.STATES)
        assert moved[0].imag == 0.0
        assert moved[0].real - sample.real == pytest.approx(
            side * self.min_distance(self.STATES), rel=1e-9)

    def test_complex_pole_on_sample_moves_along_its_offset(self):
        # A conjugate pair next to a real state sample.
        svals = self.STATES
        offset = 5e-7 * np.exp(0.7j)                      # min distance 1.4e-6
        pole = svals[4] + offset
        moved = _separate_poles_from_samples(np.array([pole, np.conj(pole)]), svals)
        nearest = moved[np.argmin(np.abs(moved - pole))]
        step = nearest - svals[4]
        assert abs(step) == pytest.approx(self.min_distance(svals), rel=1e-9)
        assert np.angle(step) == pytest.approx(0.7, abs=1e-8)

    @pytest.mark.parametrize("svals, poles", [
        (SVALS, np.array([-0.01 * 2 * np.pi + 2j * np.pi, -0.01 * 2 * np.pi - 2j * np.pi,
                          -6e8 + 6e10j, -6e8 - 6e10j])),
        (STATES, np.array([0.9 + 1e-9j, 0.9 - 1e-9j, 0.4 + 0j, -2.0 + 0j])),
    ])
    def test_real_mode_set_stays_conjugate_closed(self, svals, poles):
        moved = _separate_poles_from_samples(poles, svals)
        assert not np.array_equal(moved, poles)
        real_idx, pair_idx = split_real_complex(moved)
        assert len(real_idx) + 2 * len(pair_idx) == moved.size
        assert np.array_equal(moved[pair_idx + 1], np.conj(moved[pair_idx]))
        assert np.all(moved[real_idx].imag == 0.0)

    @pytest.mark.parametrize("svals, poles", [
        (SVALS, initial_complex_poles(1.0, 1e10, 4)),
        (STATES, np.array([0.75 + 1e-9, 0.55 + 4e-7j, 0.55 - 4e-7j, 1.0 - 3e-7j,
                           1.0 + 3e-7j, -2.0 + 0j])),
    ])
    def test_matches_per_pole_reference_bitwise(self, svals, poles):
        moved = _separate_poles_from_samples(poles, svals)
        expected = per_pole_separation(poles, svals)
        assert not np.array_equal(expected, poles)
        assert np.array_equal(moved.view(float), expected.view(float))

    def test_poles_away_from_samples_are_unchanged(self):
        for svals, poles in ((self.SVALS, np.array([-5e7 + 0j, -1e6 + 1e8j, -1e6 - 1e8j])),
                             (self.STATES, np.array([-0.6 + 0j, 0.9 + 0.3j, 0.9 - 0.3j]))):
            moved = _separate_poles_from_samples(poles, svals)
            assert moved is not poles
            assert np.array_equal(moved, poles)


class TestRelocationEquivalence:
    """The batched QR step equals the per-response loop, bit for bit."""

    @staticmethod
    def synthetic_family(n_responses):
        rng = np.random.default_rng(17 + n_responses)
        svals = 2j * np.pi * np.logspace(3, 10, 41)
        poles = np.array([-2e5, -3e7 + 2e8j, -3e7 - 2e8j, -1e9 + 8e9j, -1e9 - 8e9j])
        scale = np.array([1e5, 1e8, 1e8, 1e9, 1e9])
        rows = []
        for _ in range(n_responses):
            residues = scale * (rng.normal(size=poles.size) + 1j * rng.normal(size=poles.size))
            residues[2::2] = np.conj(residues[1::2])
            residues[0] = residues[0].real
            clean = synthetic_response(svals, poles, residues, rng.normal())
            noise = rng.normal(size=svals.size) + 1j * rng.normal(size=svals.size)
            rows.append(clean + 1e-3 * np.abs(clean) * noise)
        return svals, np.array(rows)

    @pytest.mark.parametrize("n_responses", [1, 6, 110])
    @pytest.mark.parametrize("relaxed", [True, False])
    def test_matches_per_response_loop(self, relaxed, n_responses):
        svals, data = self.synthetic_family(n_responses)
        initial = initial_complex_poles(1e3, 1e10, 4)
        assert_relocation_matches_reference(svals, data, initial, relaxed, n_steps=3)

    @pytest.mark.parametrize("relaxed", [True, False])
    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_per_response_loop_on_buffer_tft(self, buffer_tft, order, relaxed):
        response = buffer_tft.siso_response(0, 0)
        dynamic = response - buffer_tft.siso_dc(0, 0).real[:, None]
        svals = 2j * np.pi * buffer_tft.frequencies
        initial = initial_complex_poles(buffer_tft.frequencies.min(),
                                        buffer_tft.frequencies.max(), order)
        assert_relocation_matches_reference(svals, dynamic, initial, relaxed, n_steps=4)


class TestVectorFitRealMode:
    FREQS = np.logspace(5, 10, 60)
    SVALS = 2j * np.pi * FREQS
    TRUE_POLES = np.array([-2e7, -1e9 + 4e9j, -1e9 - 4e9j])

    def _data(self, residues, constant=0.0):
        return synthetic_response(self.SVALS, self.TRUE_POLES, residues, constant)

    def test_recovers_exact_rational_function(self):
        data = self._data([1e7, 1e9 + 5e8j, 1e9 - 5e8j], constant=0.2)
        result = vector_fit(self.SVALS, data, initial_complex_poles(1e5, 1e10, 3))
        assert result.relative_error < 1e-6

    def test_non_relaxed_recovers_exact_rational_function(self):
        data = self._data([1e7, 1e9 + 5e8j, 1e9 - 5e8j], constant=0.2)[None, :]
        poles = _canonical_order(initial_complex_poles(1e5, 1e10, 3))
        for _ in range(12):
            poles, _ = _relocate_poles(self.SVALS, data, poles, True, relaxed=False)
        *_, relative_error = _identify_residues(self.SVALS, data, poles)
        assert relative_error < 1e-6
        assert np.allclose(np.sort_complex(poles),
                           np.sort_complex(self.TRUE_POLES), rtol=1e-4)

    def test_recovers_pole_locations(self):
        data = self._data([1e7, 1e9 + 5e8j, 1e9 - 5e8j])
        result = vector_fit(self.SVALS, data, initial_complex_poles(1e5, 1e10, 3))
        found = np.sort_complex(result.poles)
        expected = np.sort_complex(self.TRUE_POLES)
        assert np.allclose(found, expected, rtol=1e-4)

    def test_common_poles_across_responses(self):
        rng = np.random.default_rng(1)
        rows = []
        for _ in range(5):
            r_real = rng.normal() * 1e8
            r_pair = rng.normal() * 1e9 + 1j * rng.normal() * 1e9
            rows.append(self._data([r_real, r_pair, np.conj(r_pair)]))
        data = np.array(rows)
        result = vector_fit(self.SVALS, data, initial_complex_poles(1e5, 1e10, 3))
        assert result.n_responses == 5
        assert result.relative_error < 1e-6

    def test_stability_enforced(self):
        data = self._data([1e7, 1e9, 1e9])
        result = vector_fit(self.SVALS, data, initial_complex_poles(1e5, 1e10, 4))
        assert result.is_stable()

    def test_constant_term_recovered(self):
        data = self._data([1e7, 2e9 + 1e9j, 2e9 - 1e9j], constant=1.7)
        result = vector_fit(self.SVALS, data, initial_complex_poles(1e5, 1e10, 3))
        assert result.constants[0].real == pytest.approx(1.7, rel=1e-3)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(FittingError):
            vector_fit(self.SVALS, np.zeros((2, 10)), initial_complex_poles(1e5, 1e10, 2))

    def test_too_few_samples_rejected(self):
        with pytest.raises(FittingError):
            vector_fit(self.SVALS[:3], np.zeros(3), initial_complex_poles(1e5, 1e10, 8))

    def test_evaluate_matches_fit_data(self):
        data = self._data([1e7, 1e9 + 5e8j, 1e9 - 5e8j])
        result = vector_fit(self.SVALS, data, initial_complex_poles(1e5, 1e10, 3))
        model = result.evaluate(self.SVALS)[0]
        assert np.max(np.abs(model - data)) / np.max(np.abs(data)) < 1e-6


class TestAutoOrder:
    def test_stops_at_error_bound(self):
        freqs = np.logspace(6, 10, 50)
        svals = 2j * np.pi * freqs
        poles = np.array([-1e8, -2e9 + 6e9j, -2e9 - 6e9j])
        data = synthetic_response(svals, poles, [1e8, 1e9 + 1e9j, 1e9 - 1e9j])
        report = fit_auto_order(svals, data, 1e-6, initial_pole_factory=lambda order:
                                initial_complex_poles(freqs[0], freqs[-1], order))
        assert report.converged
        assert report.order <= 6

    def test_reports_order_history(self):
        freqs = np.logspace(6, 10, 50)
        svals = 2j * np.pi * freqs
        data = synthetic_response(svals, [-1e9], [1e9])
        report = fit_auto_order(svals, data, 1e-9, initial_pole_factory=lambda order:
                                initial_complex_poles(freqs[0], freqs[-1], order))
        assert report.orders_tried[0] == 2
        assert len(report.errors) == len(report.orders_tried)

    def test_invalid_bound_rejected(self):
        with pytest.raises(FittingError):
            fit_auto_order(2j * np.pi * np.logspace(6, 9, 20), np.ones(20), -1.0,
                           initial_pole_factory=lambda order:
                           initial_complex_poles(1e6, 1e9, order))


def test_zero_responses_take_the_non_relaxed_fallback(monkeypatch):
    """All-zero responses make the relaxed step degenerate (d_tilde = 0), so
    the step is redone non-relaxed; the fit stays finite with zero error."""
    relocate = vectorfit._relocate_poles
    relaxed_flags = []

    def spy(*args, **kwargs):
        relaxed_flags.append(kwargs.get("relaxed", True))
        return relocate(*args, **kwargs)

    monkeypatch.setattr(vectorfit, "_relocate_poles", spy)
    svals = 2j * np.pi * np.logspace(5, 10, 60)
    result = vector_fit(svals, np.zeros((2, 60)), initial_complex_poles(1e5, 1e10, 4))
    assert False in relaxed_flags
    assert np.all(np.isfinite(result.poles))
    assert np.array_equal(result.residues, np.zeros((2, 4)))
    assert result.rms_error == 0.0 and result.relative_error == 0.0
