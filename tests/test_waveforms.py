"""Tests for stimulus waveforms."""

import numpy as np
import pytest

from repro.circuit.waveforms import DC, BitPattern, Pulse, Sine, prbs_bits


class TestDC:
    def test_constant_value(self):
        assert DC(1.2)(0.0) == 1.2
        assert DC(1.2)(1e-6) == 1.2


class TestSine:
    def test_value_at_zero_without_delay(self):
        w = Sine(offset=1.0, amplitude=0.5, frequency=1e6)
        assert w(0.0) == pytest.approx(1.0)

    def test_peak_value(self):
        w = Sine(offset=0.0, amplitude=2.0, frequency=1.0)
        assert w(0.25) == pytest.approx(2.0, abs=1e-12)

    def test_period(self):
        w = Sine(offset=0.0, amplitude=1.0, frequency=10.0)
        assert w(0.05) == pytest.approx(w(0.15), abs=1e-12)

    def test_holds_offset_before_delay(self):
        w = Sine(offset=0.7, amplitude=0.5, frequency=1e6, delay=1e-6)
        assert w(0.5e-6) == pytest.approx(0.7)

    def test_phase_shift(self):
        w = Sine(offset=0.0, amplitude=1.0, frequency=1.0, phase=np.pi / 2)
        assert w(0.0) == pytest.approx(1.0)

    def test_damping_reduces_amplitude(self):
        w = Sine(amplitude=1.0, frequency=1.0, damping=1.0)
        assert abs(w(1.25)) < 1.0


class TestPulse:
    def test_initial_level_before_delay(self):
        w = Pulse(initial=0.0, pulsed=1.0, delay=1e-9)
        assert w(0.5e-9) == 0.0

    def test_pulsed_level_on_plateau(self):
        w = Pulse(initial=0.0, pulsed=1.0, delay=0.0, rise=1e-12, width=1e-9, period=2e-9)
        assert w(0.5e-9) == pytest.approx(1.0)

    def test_rise_is_linear(self):
        w = Pulse(initial=0.0, pulsed=1.0, delay=0.0, rise=1e-9, width=1e-9, period=4e-9)
        assert w(0.5e-9) == pytest.approx(0.5)

    def test_returns_to_initial(self):
        w = Pulse(initial=0.2, pulsed=1.0, delay=0.0, rise=1e-12, fall=1e-12,
                  width=1e-9, period=4e-9)
        assert w(3e-9) == pytest.approx(0.2)

    def test_periodicity(self):
        w = Pulse(initial=0.0, pulsed=1.0, delay=0.0, rise=1e-12, fall=1e-12,
                  width=1e-9, period=2e-9)
        assert w(0.5e-9) == pytest.approx(w(2.5e-9))


class TestPrbsBits:
    def test_length(self):
        assert len(prbs_bits(100)) == 100

    def test_binary_values(self):
        assert set(prbs_bits(64)) <= {0, 1}

    def test_deterministic_for_same_seed(self):
        assert prbs_bits(32, seed=5) == prbs_bits(32, seed=5)

    def test_different_seeds_differ(self):
        assert prbs_bits(64, seed=3) != prbs_bits(64, seed=77)

    def test_prbs7_period(self):
        bits = prbs_bits(254, order=7)
        assert bits[:127] == bits[127:254]

    def test_contains_both_symbols(self):
        bits = prbs_bits(50)
        assert 0 in bits and 1 in bits

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            prbs_bits(10, order=4)


class TestBitPattern:
    def test_levels(self):
        w = BitPattern(bits=[1, 1, 0, 0], bit_rate=1e9, low=0.2, high=1.0)
        assert w(0.5e-9) == pytest.approx(1.0)
        assert w(3.5e-9) == pytest.approx(0.2)

    def test_duration(self):
        w = BitPattern(bits=[1, 0, 1], bit_rate=1e9)
        assert w.duration == pytest.approx(3e-9)

    def test_holds_last_bit_after_pattern(self):
        w = BitPattern(bits=[0, 1], bit_rate=1e9, low=0.0, high=1.0)
        assert w(10e-9) == pytest.approx(1.0)

    def test_raised_cosine_edge_midpoint(self):
        w = BitPattern(bits=[0, 1], bit_rate=1e9, low=0.0, high=1.0, edge_time=0.4e-9)
        assert w(1.2e-9) == pytest.approx(0.5, abs=1e-9)

    def test_values_within_levels(self):
        w = BitPattern(bits=prbs_bits(16), bit_rate=2.5e9, low=0.4, high=1.4)
        t = np.linspace(0, w.duration, 500)
        values = np.array([w(ti) for ti in t])
        assert values.min() >= 0.4 - 1e-12
        assert values.max() <= 1.4 + 1e-12

    def test_delay_shifts_pattern(self):
        w = BitPattern(bits=[1, 0], bit_rate=1e9, low=0.0, high=1.0, delay=1e-9)
        assert w(0.5e-9) == pytest.approx(1.0)  # before delay: first bit level


class TestBreakpoints:
    """Corner-time registration consumed by the adaptive step controller."""

    def test_smooth_waveforms_have_none(self):
        assert DC(0.7).breakpoints(0.0, 1.0).size == 0
        assert Sine(0.5, 0.1, 1e6).breakpoints(0.0, 1e-6).size == 0

    def test_sine_hold_end_is_a_corner(self):
        w = Sine(0.5, 0.1, 1e6, delay=2e-7)
        np.testing.assert_allclose(w.breakpoints(0.0, 1e-6), [2e-7])
        assert w.breakpoints(3e-7, 1e-6).size == 0      # outside the span

    def test_pulse_corners_across_periods(self):
        w = Pulse(initial=0.0, pulsed=1.0, delay=1e-9, rise=1e-9, fall=2e-9,
                  width=3e-9, period=10e-9)
        corners = w.breakpoints(0.0, 20e-9)
        expected = [1e-9, 2e-9, 5e-9, 7e-9,             # first period
                    11e-9, 12e-9, 15e-9, 17e-9]         # second period
        np.testing.assert_allclose(corners, expected)

    def test_pulse_window_clips_and_keeps_order(self):
        w = Pulse(rise=1e-9, fall=1e-9, width=2e-9, period=10e-9)
        corners = w.breakpoints(10.5e-9, 14e-9)
        np.testing.assert_allclose(corners, [11e-9, 13e-9, 14e-9])

    def test_bitpattern_transition_starts_and_ends(self):
        w = BitPattern(bits=[0, 1, 1, 0], bit_rate=1e9, edge_time=0.2e-9)
        corners = w.breakpoints(0.0, 4e-9)
        # Transitions into bits 1 and 3 only; start and end of each edge.
        np.testing.assert_allclose(corners, [1e-9, 1.2e-9, 3e-9, 3.2e-9])

    def test_bitpattern_constant_pattern_has_none(self):
        assert BitPattern(bits=[1, 1, 1], bit_rate=1e9).breakpoints(0, 3e-9).size == 0

    def test_breakpoints_sorted_unique(self):
        w = Pulse(rise=1e-9, fall=1e-9, width=8e-9, period=10e-9)
        corners = w.breakpoints(0.0, 50e-9)
        assert np.all(np.diff(corners) > 0)             # strictly increasing
