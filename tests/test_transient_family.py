"""Transient families: S systems of one circuit in one Newton loop.

Every row of a family must be byte-equal (``.view(np.uint64)``) to its own
``transient_analysis`` run: states, outputs, Newton counts, cache counters and
snapshots, failures included.
"""

import traceback

import numpy as np
import pytest

import repro.circuit.dc as dc_module
import repro.circuit.newton as newton_module
import repro.circuit.transient as transient_module
from repro.circuit import Sine, TransientOptions, transient_analysis
from repro.circuits import (build_diode_limiter, build_output_buffer,
                            buffer_training_waveform, build_rc_ladder)
from repro.circuits.buffer import BufferParams
from repro.sweep import Scenario, SweepOptions, cross_sweep, run_sweep, waveform_sweep
from repro.tft import SnapshotTrajectory

from test_sweep import ExplodingWaveform

#: The held-out validation sines of the repo benchmark's ``extract`` workload:
#: (amplitude V, frequency Hz) design points, each jittered by +-5% per seed.
HELDOUT_DESIGN = ((0.45, 3.0e6), (0.30, 1.5e6), (0.15, 2.5e6))
COUNTERS = ("newton_iterations", "rejected_steps", "lte_rejections",
            "cache_factorizations", "cache_reuses", "cache_solves")


def heldout_sines(seed):
    rng = np.random.default_rng([seed, 0, 0])
    offset = buffer_training_waveform().offset
    return [Sine(offset, amplitude * (1.0 + rng.uniform(-0.05, 0.05)),
                 frequency * (1.0 + rng.uniform(-0.05, 0.05)))
            for amplitude, frequency in HELDOUT_DESIGN]


def buffer_options(periods=1.0, **changes):
    period = 1.0 / buffer_training_waveform().frequency
    return TransientOptions(t_stop=periods * period, dt=period / 150, **changes)


def bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


def assert_same_run(row, solo):
    assert row.times[-1] == solo.times[-1] > row.times[0]
    for field in ("times", "states", "outputs", "inputs"):
        np.testing.assert_array_equal(bits(getattr(row, field)),
                                      bits(getattr(solo, field)), err_msg=field)
    assert [getattr(row, c) for c in COUNTERS] == [getattr(solo, c) for c in COUNTERS]


def assert_same_snapshots(trajectory, solo):
    assert len(trajectory) == len(solo) > 0
    for snap, ref in zip(trajectory, solo):
        assert snap.time == ref.time
        for field in ("state", "inputs", "outputs", "conductance", "capacitance"):
            np.testing.assert_array_equal(bits(getattr(snap, field)),
                                          bits(getattr(ref, field)), err_msg=field)


def solo_run(waveform, options, snapshots=False, builder=build_output_buffer,
             **kwargs):
    system = builder(input_waveform=waveform, **kwargs).build()
    trajectory = SnapshotTrajectory(system) if snapshots else None
    return transient_analysis(system, options, snapshot_callback=trajectory), trajectory


class TestBufferFamily:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_heldout_sines_match_their_own_runs(self, seed):
        sines = heldout_sines(seed)
        options = buffer_options()
        family = transient_analysis(
            [build_output_buffer(input_waveform=w).build() for w in sines], options)
        assert len(family) == 3
        for wave, row in zip(sines, family):
            assert_same_run(row, solo_run(wave, options)[0])

    def test_snapshot_trajectories_match_solo_captures(self):
        sines = heldout_sines(11)[:2]
        options = buffer_options(periods=1 / 3)
        systems = [build_output_buffer(input_waveform=w).build() for w in sines]
        trajectories = [SnapshotTrajectory(system) for system in systems]
        family = transient_analysis(systems, options, snapshot_callback=trajectories)
        for wave, row, trajectory in zip(sines, family, trajectories):
            solo, solo_trajectory = solo_run(wave, options, snapshots=True)
            assert_same_run(row, solo)
            assert_same_snapshots(trajectory, solo_trajectory)

    def test_sparse_assembly_family(self):
        sines = heldout_sines(3)[:2]
        options = buffer_options(periods=0.2, assembly="sparse")
        family = transient_analysis(
            [build_output_buffer(input_waveform=w).build() for w in sines], options)
        for wave, row in zip(sines, family):
            assert_same_run(row, solo_run(wave, options)[0])

    def test_rows_damp_their_own_updates_from_their_own_starts(self, monkeypatch):
        """One row starts far from its solution, so only its steps are damped."""
        monkeypatch.setattr(newton_module, "MAX_STEP", 0.3)
        options = buffer_options(periods=0.1)
        sines = [Sine(0.9, 0.45, 3e6), Sine(0.9, 0.05, 1e6)]
        systems = [build_output_buffer(input_waveform=w).build() for w in sines]
        starts = [np.zeros(systems[0].n_unknowns), None]
        family = transient_analysis(systems, options, initial_state=starts)
        for wave, start, row in zip(sines, starts, family):
            solo = transient_analysis(build_output_buffer(input_waveform=wave).build(),
                                      options, initial_state=start)
            assert_same_run(row, solo)
        assert family[0].newton_iterations > 4 * family[1].newton_iterations

    def test_row_failing_the_shared_step_continues_alone(self, monkeypatch):
        """A tight iteration cap makes the large swing miss steps its peers take."""
        monkeypatch.setattr(transient_module, "NEWTON_ITERATIONS", 3)
        options = buffer_options(periods=0.5)
        sines = [Sine(0.9, 0.45, 3e6), Sine(0.9, 0.15, 2.5e6), Sine(0.9, 0.05, 1e6)]
        family = transient_analysis(
            [build_output_buffer(input_waveform=w).build() for w in sines], options)
        solos = [solo_run(wave, options)[0] for wave in sines]
        assert solos[0].rejected_steps > 0 and solos[2].rejected_steps == 0
        assert all(solo.times[-1] == options.t_stop for solo in solos)
        for row, solo in zip(family, solos):
            assert_same_run(row, solo)


class TestStackedEvaluation:
    @pytest.mark.parametrize("build, assembly", [
        (build_output_buffer, "auto"), (build_output_buffer, "sparse"),
        (build_diode_limiter, "auto"), (build_rc_ladder, "sparse")])
    def test_stack_rows_equal_one_dimensional_calls(self, build, assembly):
        engine = build(input_waveform=Sine(0.5, 0.1, 1e6)).build().compile(assembly)
        stack = np.random.default_rng(3).normal(0.0, 0.8, (3, engine.n_unknowns))
        i_stack, g_stack = engine.eval_static(stack)
        q_stack, c_stack = engine.eval_dynamic(stack)
        for k, v in enumerate(stack):
            for stacked, single in zip((i_stack, g_stack, q_stack, c_stack),
                                       engine.eval_static(v) + engine.eval_dynamic(v)):
                np.testing.assert_array_equal(bits(stacked[k]), bits(single))

    def test_engines_match_only_the_same_circuit(self):
        def engine(**kwargs):
            return build_output_buffer(**kwargs).build().compile("auto")
        reference = engine(input_waveform=Sine(0.9, 0.1, 1e6))
        assert reference.matches(engine(input_waveform=Sine(0.9, 0.4, 3e6)))
        assert not reference.matches(engine(
            input_waveform=Sine(0.9, 0.1, 1e6),
            params=BufferParams(output_load_capacitance=50e-15)))
        assert not reference.matches(engine(
            input_waveform=Sine(0.9, 0.1, 1e6), params=BufferParams(follower_width=20e-6)))
        limiter = build_diode_limiter(input_waveform=Sine(0.0, 0.5, 1e6)).build()
        # Generic (per-device) nonlinear stamps cannot be compared.
        assert not limiter.compile("auto").matches(
            build_diode_limiter(input_waveform=Sine(0.0, 0.5, 1e6)).build().compile("auto"))


class TestFamilyPreparation:
    """Later rows compile unverified for the engine check and share DC points."""

    @pytest.fixture
    def dc_calls(self, monkeypatch):
        calls = []
        solve = transient_module.dc_operating_point

        def counting(system, *args, **kwargs):
            calls.append(system)
            return solve(system, *args, **kwargs)

        monkeypatch.setattr(transient_module, "dc_operating_point", counting)
        return calls

    def test_equal_offset_sines_solve_one_dc_point(self, dc_calls):
        sines = heldout_sines(5)
        options = buffer_options(periods=0.2)
        systems = [build_output_buffer(input_waveform=w).build() for w in sines]
        family = transient_analysis(systems, options)
        assert dc_calls == [systems[0]]
        # No unverified engine is left behind on the later rows' systems.
        assert all(not system._compiled for system in systems[1:])
        dc_calls.clear()
        for wave, row in zip(sines, family):
            assert_same_run(row, solo_run(wave, options)[0])

    def test_other_excitations_and_initial_states_get_their_own_start(self, dc_calls):
        options = buffer_options(periods=0.2)
        sines = [Sine(0.9, 0.3, 2e6), Sine(0.9, 0.1, 3e6), Sine(0.85, 0.2, 2e6),
                 Sine(0.9, 0.2, 1e6), Sine(0.9, 0.2, 2e6, phase=0.3)]
        solo_start = solo_run(sines[3], options)[0].states[0] * (1.0 + 1e-3)
        starts = [None, None, None, solo_start, None]
        systems = [build_output_buffer(input_waveform=w).build() for w in sines]
        dc_calls.clear()
        family = transient_analysis(systems, options, initial_state=starts)
        assert dc_calls == [systems[0], systems[2], systems[4]]
        for wave, start, row in zip(sines, starts, family):
            solo = transient_analysis(build_output_buffer(input_waveform=wave).build(),
                                      options, initial_state=start)
            assert_same_run(row, solo)

    def test_failing_dc_point_fails_every_row_by_its_own_name(self, dc_calls,
                                                              monkeypatch):
        solve = dc_module.newton_solve
        monkeypatch.setattr(dc_module, "newton_solve",
                            lambda f, guess, **kwargs: solve(f, guess, 1, **kwargs))
        options = buffer_options(periods=0.1)
        systems = [build_output_buffer(input_waveform=Sine(0.9, a, 2e6),
                                       name=name).build()
                   for a, name in ((0.1, "first"), (0.2, "second"))]
        first, second = transient_analysis(systems, options)
        assert dc_calls == systems
        assert "'first'" in str(first) and "'second'" in str(second)
        assert type(first) is type(second)
        with pytest.raises(type(second), match="'second'"):
            transient_analysis(systems[1], options)


_BUILDS = {"count": 0}


def alternating_ladder(**kwargs):
    """A builder that is not a function of its arguments (2 or 3 sections)."""
    _BUILDS["count"] += 1
    return build_rc_ladder(2 + _BUILDS["count"] % 2, **kwargs)


class TestLinearFamily:
    def test_rc_ladder_cross_sweep_reuses_factors_and_matches(self):
        waves = {"small": Sine(0.5, 0.1, 2e5), "large": Sine(0.5, 0.4, 2e5),
                 "fast": Sine(0.5, 0.25, 1e6)}
        corners = {"nom": {"n_sections": 3},
                   "slow": {"n_sections": 3, "resistance": 2e3}}
        options = TransientOptions(t_stop=1e-6, dt=1e-8)
        sweep = run_sweep(cross_sweep(build_rc_ladder, waves, corners,
                                      transient=options),
                          SweepOptions(capture_snapshots=False))
        for corner, kwargs in corners.items():
            for name, wave in waves.items():
                row = sweep[f"{corner}/{name}"].transient
                assert_same_run(row, solo_run(wave, options, builder=build_rc_ladder,
                                              **kwargs)[0])
                assert row.cache_reuses > row.cache_factorizations


class TestFamilyFailures:
    def test_exploding_row_leaves_the_family_with_its_own_error(self):
        kwargs = {"n_sections": 2}
        options = TransientOptions(t_stop=1e-6, dt=1e-8)
        scenarios = waveform_sweep(build_rc_ladder, {
            "good": Sine(0.5, 0.1, 2e5), "bad": ExplodingWaveform(t_burst=4e-7),
            "also_good": Sine(0.5, 0.3, 1e6)}, transient=options,
            builder_kwargs=kwargs)
        family = run_sweep(scenarios, SweepOptions(raise_on_error=False))
        assert [r.name for r in family.failed] == ["bad"]
        alone = run_sweep([scenarios[1]], SweepOptions(raise_on_error=False))[0]
        assert family["bad"].transient is None and family["bad"].trajectory is None
        last_line = alone.error.strip().splitlines()[-1]
        assert last_line.startswith("RuntimeError: stimulus exploded at t=")
        assert family["bad"].error.strip().splitlines()[-1] == last_line
        for scenario in (scenarios[0], scenarios[2]):
            solo, trajectory = solo_run(scenario.waveform, options, snapshots=True,
                                        builder=build_rc_ladder, **kwargs)
            assert_same_run(family[scenario.name].transient, solo)
            assert_same_snapshots(family[scenario.name].trajectory, trajectory)

    def test_direct_call_returns_the_rows_exception(self):
        options = TransientOptions(t_stop=1e-6, dt=1e-8)
        systems = [build_rc_ladder(2, input_waveform=w).build()
                   for w in (Sine(0.5, 0.1, 2e5), ExplodingWaveform(t_burst=4e-7))]
        good, bad = transient_analysis(systems, options)
        assert good.n_points == 101
        assert isinstance(bad, RuntimeError) and "exploded" in str(bad)
        with pytest.raises(RuntimeError, match="stimulus exploded") as solo:
            transient_analysis(systems[1], options)
        assert (traceback.format_exception_only(bad)
                == traceback.format_exception_only(solo.value))

    def test_adaptive_family_is_refused(self):
        systems = [build_rc_ladder(2, input_waveform=Sine(0.5, a, 2e5)).build()
                   for a in (0.1, 0.2)]
        with pytest.raises(ValueError, match="adaptive"):
            transient_analysis(systems, TransientOptions(t_stop=1e-6, dt=1e-8,
                                                         adaptive=True))
        with pytest.raises(ValueError, match="legacy"):
            transient_analysis(systems, TransientOptions(t_stop=1e-6, dt=1e-8,
                                                         assembly="legacy"))
        # One system of an adaptive family is a plain single run.
        single, = transient_analysis(systems[:1], TransientOptions(
            t_stop=1e-6, dt=1e-8, adaptive=True))
        assert single.n_points > 2

    def test_different_circuits_are_refused(self):
        systems = [build_rc_ladder(n, input_waveform=Sine(0.5, 0.1, 2e5)).build()
                   for n in (2, 3)]
        with pytest.raises(ValueError, match="same engine"):
            transient_analysis(systems, TransientOptions(t_stop=1e-6, dt=1e-8))
        buffers = [build_output_buffer(params=params, input_waveform=Sine(0.9, 0.1, 1e6))
                   .build() for params in (None, BufferParams(follower_width=20e-6))]
        with pytest.raises(ValueError, match="same engine"):
            transient_analysis(buffers, buffer_options(periods=0.1))

    def test_sweep_family_of_unequal_circuits_runs_alone(self):
        options = TransientOptions(t_stop=5e-7, dt=1e-8)
        scenarios = waveform_sweep(alternating_ladder,
                                   [Sine(0.5, 0.1, 2e5), Sine(0.5, 0.3, 2e5)],
                                   transient=options)
        sweep = run_sweep(scenarios)
        assert not sweep.failed
        assert {r.transient.states.shape[1] for r in sweep} == {4, 5}

    def test_mixed_sweep_groups_only_equal_recipes(self):
        """Unequal kwargs, options or adaptive runs never share a family."""
        options = TransientOptions(t_stop=5e-7, dt=1e-8)
        base = Scenario(name="a", builder=build_rc_ladder,
                        builder_kwargs={"n_sections": 2},
                        waveform=Sine(0.5, 0.1, 2e5), transient=options)
        scenarios = [base,
                     base.with_transient(dt=5e-9),
                     Scenario(name="c", builder=build_rc_ladder,
                              builder_kwargs={"n_sections": 3},
                              waveform=Sine(0.5, 0.2, 2e5), transient=options),
                     base.with_transient(adaptive=True)]
        for i, scenario in enumerate(scenarios[1:], 1):
            scenario.name = f"s{i}"
        scenarios.append(Scenario(name="e", builder=build_rc_ladder,
                                  builder_kwargs={"n_sections": 2},
                                  waveform=Sine(0.5, 0.3, 1e6), transient=options))
        sweep = run_sweep(scenarios)
        for scenario in scenarios:
            solo = transient_analysis(scenario.build_circuit().build(),
                                      scenario.transient)
            assert_same_run(sweep[scenario.name].transient, solo)
