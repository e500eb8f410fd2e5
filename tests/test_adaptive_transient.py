"""Tests of the LTE-controlled adaptive time stepping and the step machinery.

Covers the adaptive controller (accuracy vs tight fixed-dt references on the
buffer and diode-limiter families, step savings, rejection bookkeeping), the
end-of-interval snap of the fixed-step path and the step-rejection machinery
(dt halving down to ``min_dt``, predictor-overshoot retry, recovery after a
rejected step).
"""

import numpy as np
import pytest

import repro.circuit.transient as transient_mod
from repro.circuit import Sine, TransientOptions, transient_analysis
from repro.circuit.newton import NewtonResult
from repro.circuit.waveforms import BitPattern, Pulse, prbs_bits
from repro.circuits import build_diode_limiter, build_output_buffer, build_rc_ladder
from repro.circuits.buffer import buffer_training_waveform
from repro.exceptions import ConvergenceError


def _rel_rmse(fine, adaptive):
    """Solver error of the adaptive run against a dense fixed-dt reference.

    Compared at the adaptive solver's own accepted points: the dense
    reference interpolates accurately onto them, whereas interpolating the
    coarse adaptive grid would measure resampling error, not solver error.
    """
    reference = fine.resample(adaptive.times)
    return (np.sqrt(np.mean((adaptive.outputs[:, 0] - reference) ** 2))
            / np.sqrt(np.mean(np.square(reference))))


class TestEndOfIntervalSnap:
    def test_divisible_span_lands_exactly_without_sliver_step(self):
        """Float accumulation of t += dt must not leave a near-zero last step."""
        system = build_rc_ladder(3, input_waveform=Sine(0.5, 0.2, 1e6)).build()
        result = transient_analysis(system, TransientOptions(t_stop=5e-6, dt=1e-8))
        assert result.times[-1] == 5e-6           # exactly, not approximately
        assert result.n_points == 501             # 500 steps + initial point
        assert np.diff(result.times).min() > 0.5e-8

    def test_non_divisible_span_snaps_final_partial_step(self):
        system = build_rc_ladder(3, input_waveform=Sine(0.5, 0.2, 1e6)).build()
        # 100.5 nominal steps: the last step is the half-step remainder.
        result = transient_analysis(system, TransientOptions(t_stop=1.005e-6, dt=1e-8))
        assert result.times[-1] == 1.005e-6
        diffs = np.diff(result.times)
        assert diffs.min() == pytest.approx(0.5e-8, rel=1e-9)
        assert diffs.max() <= 1e-8 * 1.01

    def test_adaptive_run_snaps_onto_t_stop(self):
        system = build_rc_ladder(3, input_waveform=Sine(0.5, 0.2, 1e6)).build()
        result = transient_analysis(
            system, TransientOptions(t_stop=1e-6, dt=1e-9, adaptive=True))
        assert result.times[-1] == 1e-6

    def test_legacy_assembly_shares_the_snap_fix(self):
        system = build_rc_ladder(2, input_waveform=Sine(0.5, 0.2, 1e6)).build()
        result = transient_analysis(
            system, TransientOptions(t_stop=5e-7, dt=1e-8, assembly="legacy"))
        assert result.times[-1] == 5e-7
        assert np.diff(result.times).min() > 0.5e-8


class TestAdaptiveAccuracy:
    def test_rc_ladder_matches_tight_fixed_grid_with_fewer_steps(self):
        system = build_rc_ladder(3, input_waveform=Sine(0.5, 0.2, 1e6)).build()
        fine = transient_analysis(system, TransientOptions(t_stop=1e-6, dt=2.5e-10))
        adaptive = transient_analysis(
            system, TransientOptions(t_stop=1e-6, dt=1e-9, adaptive=True))
        assert adaptive.accepted_steps < fine.accepted_steps / 10
        assert _rel_rmse(fine, adaptive) < 1e-3

    def test_diode_limiter_bitpattern_agreement(self):
        """Strongly nonlinear clipping + spectrally rich stimulus."""
        wave = BitPattern(bits=prbs_bits(12), bit_rate=1e8, low=-0.8, high=0.8)
        system = build_diode_limiter(input_waveform=wave).build()
        common = dict(t_stop=12e-8, dt=1e-8 / 64)
        fine = transient_analysis(system, TransientOptions(**common))
        adaptive = transient_analysis(
            system, TransientOptions(adaptive=True, max_dt_factor=50.0, **common))
        assert adaptive.accepted_steps < fine.accepted_steps / 3
        assert adaptive.lte_rejections > 0        # the edges exercise rejection
        assert _rel_rmse(fine, adaptive) < 1e-3

    def test_buffer_family_agreement(self):
        """The paper's buffer under its sine training stimulus."""
        waveform = buffer_training_waveform()
        system = build_output_buffer(input_waveform=waveform).build()
        period = 1.0 / waveform.frequency
        common = dict(t_stop=period / 8, dt=period / 1200)
        fine = transient_analysis(system, TransientOptions(**common))
        adaptive = transient_analysis(
            system, TransientOptions(adaptive=True, **common))
        assert adaptive.accepted_steps < fine.accepted_steps
        assert _rel_rmse(fine, adaptive) < 1e-3

    def test_backward_euler_controller(self):
        system = build_rc_ladder(3, input_waveform=Sine(0.5, 0.2, 1e6)).build()
        fine = transient_analysis(
            system, TransientOptions(t_stop=1e-6, dt=2.5e-10, method="backward_euler"))
        adaptive = transient_analysis(
            system, TransientOptions(t_stop=1e-6, dt=1e-9, adaptive=True,
                                     method="backward_euler"))
        assert adaptive.accepted_steps < fine.accepted_steps
        # BE is first order: compare against its own fine grid, looser bound.
        assert _rel_rmse(fine, adaptive) < 5e-3

    def test_breakpoints_hit_exactly_on_pulse_corners(self):
        """Accepted steps never straddle an input transition (ROADMAP item)."""
        wave = Pulse(initial=0.3, pulsed=0.8, delay=5e-8, rise=2e-8, fall=2e-8,
                     width=2e-7, period=5e-7)
        system = build_rc_ladder(3, input_waveform=wave).build()
        options = TransientOptions(t_stop=1e-6, dt=1e-9, adaptive=True,
                                   max_dt_factor=1000.0)
        result = transient_analysis(system, options)
        corners = system.waveform_breakpoints(0.0, options.t_stop)
        assert corners.size == 8                    # 4 corners x 2 periods
        for corner in corners:
            assert np.min(np.abs(result.times - corner)) == 0.0, (
                f"corner at {corner:.3e}s straddled")

    def test_breakpoint_cap_catches_what_max_dt_alone_misses(self):
        """With a huge max_dt_factor the controller would sail across a
        pulse; the breakpoint cap forces a landing and restores accuracy."""
        wave = Pulse(initial=0.3, pulsed=0.8, delay=2e-7, rise=1e-8, fall=1e-8,
                     width=5e-8, period=1e-3)       # one isolated pulse
        system = build_rc_ladder(3, input_waveform=wave).build()
        common = dict(t_stop=5e-7, dt=1e-9, adaptive=True, max_dt_factor=1000.0)
        fine = transient_analysis(system, TransientOptions(t_stop=5e-7, dt=2.5e-10))
        capped = transient_analysis(system, TransientOptions(**common))
        corners = system.waveform_breakpoints(0.0, 5e-7)
        hit = [np.min(np.abs(capped.times - c)) == 0.0 for c in corners]
        assert all(hit)
        # Within ~the controller tolerance despite 1000x steps on the flats.
        assert _rel_rmse(fine, capped) < 3e-3

    def test_bitpattern_transitions_are_landed_on(self):
        wave = BitPattern(bits=[0, 1, 0, 0, 1, 1, 0, 1], bit_rate=1e8,
                          low=-0.5, high=0.5)
        system = build_diode_limiter(input_waveform=wave).build()
        options = TransientOptions(t_stop=8e-8, dt=1e-10, adaptive=True,
                                   max_dt_factor=200.0)
        result = transient_analysis(system, options)
        corners = system.waveform_breakpoints(0.0, options.t_stop)
        assert corners.size > 0
        for corner in corners:
            assert np.min(np.abs(result.times - corner)) == 0.0

    def test_degenerate_corner_pairs_do_not_crash_the_controller(self):
        """A zero-rise pulse emits corner pairs 1e-18 apart; corners closer
        than min_dt ahead must be skipped, not clamped to (a ~1e-18 step
        would scale the Jacobian by 2/dt ~ 1e18 and abort the run)."""
        wave = Pulse(initial=0.3, pulsed=0.8, delay=1e-7, rise=0.0, fall=0.0,
                     width=1e-7, period=1e-3)
        system = build_rc_ladder(2, input_waveform=wave).build()
        result = transient_analysis(system, TransientOptions(
            t_stop=4e-7, dt=1e-9, adaptive=True, max_dt_factor=100.0))
        assert result.times[-1] == 4e-7
        # Each degenerate pair is resolved to within its own (unresolvable)
        # 1e-18 width: one member is landed on exactly, its twin is skipped.
        corners = system.waveform_breakpoints(0.0, 4e-7)
        assert corners.size > 0
        for corner in corners:
            assert np.min(np.abs(result.times - corner)) <= 1e-17

    def test_fixed_step_path_ignores_breakpoints(self):
        """The fixed grid is bitwise what it always was — the cap is
        adaptive-only."""
        wave = Pulse(initial=0.3, pulsed=0.8, delay=5.5e-8, rise=1e-8,
                     fall=1e-8, width=2e-8, period=2e-7)
        system = build_rc_ladder(2, input_waveform=wave).build()
        result = transient_analysis(system, TransientOptions(t_stop=4e-7, dt=1e-8))
        np.testing.assert_allclose(np.diff(result.times), np.full(40, 1e-8),
                                   rtol=1e-6)

    def test_option_validation(self):
        with pytest.raises(ValueError, match="max_dt_factor"):
            TransientOptions(adaptive=True, max_dt_factor=0.1).validate()
        # A negative relative weight makes the LTE weight cross zero at
        # |v| = LTE_ABS_TOL / |lte_rel_tol|; zero is a pure absolute tolerance.
        with pytest.raises(ValueError, match="lte_rel_tol"):
            TransientOptions(adaptive=True, lte_rel_tol=-1e-3).validate()
        TransientOptions(adaptive=True, lte_rel_tol=0.0).validate()


class TestStepRejectionMachinery:
    def test_newton_failure_halves_dt_down_to_min_dt_and_raises(self, monkeypatch):
        """Persistent non-convergence must end in ConvergenceError at min_dt."""
        def never_converges(f, guess, max_iterations, linear_solver=None):
            return NewtonResult(np.array(guess, dtype=float), False, 1, 1.0)

        monkeypatch.setattr(transient_mod, "newton_solve", never_converges)
        monkeypatch.setattr(transient_mod, "MIN_DT_FACTOR", 1e-2)
        system = build_rc_ladder(2, input_waveform=Sine(0.5, 0.2, 1e6)).build()
        with pytest.raises(ConvergenceError, match="failed at"):
            transient_analysis(system, TransientOptions(t_stop=1e-6, dt=1e-8))

    def test_predictor_overshoot_retries_from_accepted_solution(self, monkeypatch):
        """A failed predicted-guess solve retries from the last accepted v."""
        real = transient_mod.newton_solve
        state = {"calls": 0, "failed_guess": None, "retry_guess": None}

        def flaky(f, guess, max_iterations, linear_solver=None):
            state["calls"] += 1
            if state["calls"] == 3:               # first solve of step 3 (predicted)
                state["failed_guess"] = np.array(guess, copy=True)
                return NewtonResult(np.array(guess, dtype=float), False, 1, 1.0)
            if state["failed_guess"] is not None and state["retry_guess"] is None:
                state["retry_guess"] = np.array(guess, copy=True)
            return real(f, guess, max_iterations, linear_solver=linear_solver)

        system = build_rc_ladder(2, input_waveform=Sine(0.5, 0.2, 1e6)).build()
        options = TransientOptions(t_stop=2e-7, dt=1e-8)
        clean = transient_analysis(system, options)
        monkeypatch.setattr(transient_mod, "newton_solve", flaky)
        result = transient_analysis(system, options)

        # The retry started from the previously accepted solution, which is
        # the second accepted state, not from the (rejected) predicted guess.
        assert state["retry_guess"] is not None
        np.testing.assert_array_equal(state["retry_guess"], clean.states[2])
        assert not np.array_equal(state["retry_guess"], state["failed_guess"])
        # A successful retry is not a rejected step and costs no accuracy.
        assert result.rejected_steps == 0
        np.testing.assert_allclose(result.outputs, clean.outputs, rtol=0, atol=1e-9)

    def test_rejected_step_recovers_the_end_point(self, monkeypatch):
        """A step whose predicted guess and retry both fail is rejected once,
        and the run still ends where the clean run ends."""
        real = transient_mod.newton_solve
        state = {"calls": 0}

        def flaky(f, guess, max_iterations, linear_solver=None):
            state["calls"] += 1
            if state["calls"] in (3, 4):          # predicted guess AND retry fail
                return NewtonResult(np.array(guess, dtype=float), False, 1, 1.0)
            return real(f, guess, max_iterations, linear_solver=linear_solver)

        system = build_rc_ladder(2, input_waveform=Sine(0.5, 0.2, 1e6)).build()
        options = TransientOptions(t_stop=2e-7, dt=1e-8)
        baseline = transient_analysis(system, options)
        monkeypatch.setattr(transient_mod, "newton_solve", flaky)
        result = transient_analysis(system, options)

        assert result.rejected_steps == 1
        span = float(baseline.outputs.max() - baseline.outputs.min()) or 1.0
        np.testing.assert_allclose(result.outputs[-1], baseline.outputs[-1],
                                   rtol=0, atol=1e-4 * span)

    def test_lte_rejections_counted_as_rejected_steps(self):
        wave = BitPattern(bits=prbs_bits(8), bit_rate=1e8, low=-0.8, high=0.8)
        system = build_diode_limiter(input_waveform=wave).build()
        result = transient_analysis(
            system, TransientOptions(t_stop=8e-8, dt=1e-8 / 64, adaptive=True,
                                     max_dt_factor=50.0))
        assert result.lte_rejections > 0
        assert result.rejected_steps >= result.lte_rejections
