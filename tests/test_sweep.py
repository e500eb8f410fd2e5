"""Tests of the repro.sweep scenario runner and its TFT integration."""

import dataclasses

import numpy as np
import pytest

from repro.circuit import Sine, TransientOptions
from repro.circuit.waveforms import BitPattern, Waveform, prbs_bits
from repro.circuits import build_rc_ladder
from repro.exceptions import ReproError
from repro.sweep import (
    Scenario,
    SweepOptions,
    corner_sweep,
    cross_sweep,
    run_sweep,
    waveform_sweep,
)
from repro.tft import extract_tft

FAST = TransientOptions(t_stop=1e-6, dt=1e-8)


class ExplodingWaveform(Waveform):
    """Stimulus that blows up mid-transient (module-level: stays picklable)."""

    def __init__(self, t_burst: float) -> None:
        self.t_burst = float(t_burst)

    def value(self, t: float) -> float:
        if t > self.t_burst:
            raise RuntimeError(f"stimulus exploded at t={t:.3e}")
        return 0.5


def eight_scenarios():
    """Two corners x four waveforms of the 2-section RC ladder."""
    waves = {
        "sine_small": Sine(0.5, 0.1, 2e5),
        "sine_large": Sine(0.5, 0.4, 2e5),
        "sine_fast": Sine(0.5, 0.25, 1e6),
        "prbs": BitPattern(bits=prbs_bits(6), bit_rate=5e6, low=0.2, high=0.8),
    }
    corners = {
        "nom": {"n_sections": 2, "resistance": 1e3, "capacitance": 1e-9},
        "slow": {"n_sections": 2, "resistance": 2e3, "capacitance": 2e-9},
    }
    return cross_sweep(build_rc_ladder, waves, corners, transient=FAST)


class TestScenarioConstruction:
    def test_waveform_sweep_names_from_mapping(self):
        scenarios = waveform_sweep(build_rc_ladder,
                                   {"a": Sine(0.5, 0.1, 1e5), "b": Sine(0.5, 0.2, 1e5)})
        assert [s.name for s in scenarios] == ["a", "b"]

    def test_waveform_sweep_names_from_sequence(self):
        scenarios = waveform_sweep(build_rc_ladder, [Sine(0.5, 0.1, 1e5)] * 3)
        assert [s.name for s in scenarios] == ["wave0", "wave1", "wave2"]

    def test_corner_sweep_passes_kwargs(self):
        scenarios = corner_sweep(build_rc_ladder,
                                 {"big": {"n_sections": 4}},
                                 waveform=Sine(0.5, 0.1, 1e5))
        circuit = scenarios[0].build_circuit()
        assert "big" in circuit.name
        system = circuit.build()
        assert system.n_nodes == 5  # n0..n4

    def test_cross_sweep_is_cartesian(self):
        assert len(eight_scenarios()) == 8

    def test_duplicate_names_rejected(self):
        scenarios = waveform_sweep(build_rc_ladder, [Sine(0.5, 0.1, 1e5)] * 2)
        scenarios[1] = Scenario(name="wave0", builder=build_rc_ladder,
                                waveform=Sine(0.5, 0.1, 1e5))
        with pytest.raises(ReproError, match="duplicate"):
            run_sweep(scenarios)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ReproError):
            run_sweep([])

    def test_with_transient_copies(self):
        scenario = Scenario(name="s", builder=build_rc_ladder,
                            waveform=Sine(0.5, 0.1, 1e5), transient=FAST)
        longer = scenario.with_transient(t_stop=2e-6)
        assert longer.transient.t_stop == 2e-6
        assert scenario.transient.t_stop == 1e-6


class TestRunSweep:
    def test_eight_scenarios_one_call(self):
        """Acceptance: >= 8 scenarios in one call, per-scenario snapshots."""
        result = run_sweep(eight_scenarios())
        assert len(result) == 8
        assert not result.failed
        trajectories = result.trajectories()
        assert len(trajectories) == 8
        for trajectory in trajectories.values():
            assert len(trajectory) > 50

    def test_results_in_scenario_order_and_indexable(self):
        scenarios = eight_scenarios()
        result = run_sweep(scenarios)
        assert result.names == [s.name for s in scenarios]
        assert result["nom/sine_fast"].ok
        assert result[0].name == scenarios[0].name
        with pytest.raises(KeyError):
            result["missing"]

    def test_parallel_matches_serial(self):
        """Serial families and per-scenario workers give the same bits."""
        scenarios = eight_scenarios()[:4]
        serial = run_sweep(scenarios, SweepOptions(n_workers=1))
        parallel = run_sweep(scenarios, SweepOptions(n_workers=2))
        assert parallel.n_workers == 2
        for name in serial.names:
            np.testing.assert_array_equal(
                parallel[name].transient.outputs.view(np.uint64),
                serial[name].transient.outputs.view(np.uint64))
            assert len(parallel[name].trajectory) == len(serial[name].trajectory)
            for snap, ref in zip(parallel[name].trajectory, serial[name].trajectory):
                for field in ("conductance", "capacitance"):
                    np.testing.assert_array_equal(
                        getattr(snap, field).view(np.uint64),
                        getattr(ref, field).view(np.uint64))

    def test_snapshot_capture_can_be_disabled(self):
        result = run_sweep(eight_scenarios()[:2],
                           SweepOptions(capture_snapshots=False))
        assert result.trajectories() == {}
        assert all(r.transient is not None for r in result)

    def test_failures_collected_or_raised(self):
        bad = Scenario(name="bad", builder=build_rc_ladder,
                       builder_kwargs={"n_sections": 0},
                       waveform=Sine(0.5, 0.1, 1e5), transient=FAST)
        good = eight_scenarios()[0]
        with pytest.raises(ReproError, match="bad"):
            run_sweep([good, bad])
        result = run_sweep([good, bad], SweepOptions(raise_on_error=False))
        assert [r.name for r in result.failed] == ["bad"]
        assert result["good" if False else good.name].ok
        assert "1 failed" in result.describe()

    def test_max_snapshots_thins_trajectory(self):
        scenario = eight_scenarios()[0]
        scenario.max_snapshots = 10
        result = run_sweep([scenario])
        assert len(result[0].trajectory) <= 10


class TestFailurePaths:
    """Workers must report failures, not crash the pool (or hang it)."""

    def exploding_scenario(self):
        return Scenario(name="mid_transient", builder=build_rc_ladder,
                        builder_kwargs={"n_sections": 2},
                        waveform=ExplodingWaveform(t_burst=4e-7),
                        transient=FAST)

    def test_worker_raising_mid_scenario_is_collected(self):
        good = eight_scenarios()[0]
        result = run_sweep([good, self.exploding_scenario()],
                           SweepOptions(raise_on_error=False))
        assert result[good.name].ok
        failed = result["mid_transient"]
        assert not failed.ok and failed.transient is None
        assert "stimulus exploded" in failed.error
        assert "mid_transient" in result.provenance()["failed"]

    def test_worker_raising_mid_scenario_raises_with_traceback(self):
        with pytest.raises(ReproError, match="stimulus exploded"):
            run_sweep([eight_scenarios()[0], self.exploding_scenario()])

    def test_worker_failure_in_process_pool(self):
        """The failure report survives the pickle trip back from a worker."""
        scenarios = [eight_scenarios()[0], self.exploding_scenario(),
                     eight_scenarios()[1]]
        scenarios[2] = Scenario(name="also_good", builder=build_rc_ladder,
                                builder_kwargs={"n_sections": 2},
                                waveform=Sine(0.5, 0.2, 2e5), transient=FAST)
        result = run_sweep(scenarios, SweepOptions(n_workers=2,
                                                   raise_on_error=False))
        assert [r.name for r in result.failed] == ["mid_transient"]
        assert "stimulus exploded" in result["mid_transient"].error
        assert result[0].ok and result[2].ok

    def test_unpicklable_scenario_fails_fast_with_name(self):
        unpicklable = Scenario(
            name="lambda_builder",
            builder=lambda **kw: build_rc_ladder(**kw),  # noqa: E731
            builder_kwargs={"n_sections": 1},
            waveform=Sine(0.5, 0.1, 1e5), transient=FAST)
        good = eight_scenarios()[0]
        with pytest.raises(ReproError, match="lambda_builder.*not picklable"):
            run_sweep([good, unpicklable], SweepOptions(n_workers=2))
        # Serial execution never pickles, so the same scenario runs fine.
        result = run_sweep([unpicklable], SweepOptions(n_workers=1))
        assert result[0].ok


class TestTFTFeed:
    @pytest.fixture(scope="class")
    def sweep_result(self):
        return run_sweep(eight_scenarios())

    def test_per_scenario_tft_datasets(self, sweep_result):
        tfts = {name: extract_tft(trajectory, max_snapshots=20)
                for name, trajectory in sweep_result.trajectories().items()}
        assert set(tfts) == set(sweep_result.names)
        for dataset in tfts.values():
            assert dataset.n_states == 20
            assert dataset.n_inputs == 1 and dataset.n_outputs == 1
            assert np.all(np.isfinite(dataset.response))

    def test_combined_trajectory_covers_union_of_excursions(self, sweep_result):
        combined = sweep_result.combined_trajectory()
        total = sum(len(t) for t in sweep_result.trajectories().values())
        assert len(combined) == total
        lo, hi = combined.input_excursion()
        # The union covers the fast sine's low side AND the large sine's high
        # side; no single scenario reaches both.
        assert lo <= 0.25 and hi > 0.85
        for trajectory in sweep_result.trajectories().values():
            t_lo, t_hi = trajectory.input_excursion()
            assert (t_lo, t_hi) != (lo, hi)

    def test_combined_tft_extraction(self, sweep_result):
        dataset = sweep_result.extract_combined_tft(max_snapshots=60)
        assert dataset.n_states == 60
        assert np.all(np.isfinite(dataset.response))

    def test_combined_rejects_mixed_topologies(self):
        mixed = waveform_sweep(build_rc_ladder, [Sine(0.5, 0.1, 1e5)],
                               transient=FAST,
                               builder_kwargs={"n_sections": 1})
        mixed += waveform_sweep(build_rc_ladder, [Sine(0.5, 0.1, 1e5)],
                                transient=FAST, prefix="other",
                                builder_kwargs={"n_sections": 3})
        result = run_sweep(mixed)
        with pytest.raises(ReproError, match="topolog"):
            result.combined_trajectory()

    def test_combined_feeds_rvf_extraction(self, sweep_result):
        """The full pipeline: sweep -> combined TFT -> RVF model."""
        from repro.rvf import RVFOptions, extract_rvf_model
        dataset = sweep_result.extract_combined_tft(max_snapshots=40)
        extraction = extract_rvf_model(dataset, RVFOptions(error_bound=5e-3))
        assert extraction.model.is_stable()


class TestAdaptiveScenarios:
    def test_recipe_records_adaptive_stepping_options(self):
        options = TransientOptions(t_stop=1e-6, dt=1e-9, adaptive=True,
                                   lte_rel_tol=5e-4, max_dt_factor=40.0)
        scenario = Scenario(name="ad", builder=build_rc_ladder, transient=options)
        assert scenario.recipe()["transient"] == dataclasses.asdict(options)
        # Every field is recorded, so scenarios that differ in any one differ.
        other = scenario.with_transient(max_dt_factor=50.0)
        assert other.recipe() != scenario.recipe()

    def test_adaptive_sweep_thins_snapshots_by_time(self):
        """Adaptive runs cluster steps; thinning must stay uniform in time."""
        scenarios = waveform_sweep(
            build_rc_ladder, [Sine(0.5, 0.3, 1e6)],
            transient=TransientOptions(t_stop=1e-6, dt=1e-9, adaptive=True),
            max_snapshots=12)
        sweep = run_sweep(scenarios)
        trajectory = sweep.results[0].trajectory
        assert 2 <= len(trajectory) <= 12
        times = trajectory.times
        span = times[-1] - times[0]
        # Time thinning covers the whole span without giant holes even though
        # the underlying accepted steps are strongly non-uniform.
        assert np.max(np.diff(times)) < 0.35 * span

    def test_adaptive_parallel_matches_serial(self):
        scenarios = waveform_sweep(
            build_rc_ladder, [Sine(0.5, a, 2e5) for a in (0.1, 0.3)],
            transient=TransientOptions(t_stop=1e-6, dt=1e-8, adaptive=True))
        serial = run_sweep(scenarios, SweepOptions(n_workers=1))
        parallel = run_sweep(scenarios, SweepOptions(n_workers=2))
        for left, right in zip(serial.results, parallel.results):
            np.testing.assert_array_equal(left.transient.times,
                                          right.transient.times)
            np.testing.assert_array_equal(left.transient.outputs,
                                          right.transient.outputs)
