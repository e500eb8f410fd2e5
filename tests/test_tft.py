"""Tests for Jacobian snapshots and the TFT transform."""

import threading

import numpy as np
import pytest

import repro.circuit.linalg as linalg
from repro.circuit import Circuit, Sine, TransientOptions, ac_analysis, frequency_grid, transient_analysis
from repro.circuits import build_common_source_amplifier, build_rc_ladder
from repro.exceptions import ReproError, SingularMatrixError
from repro.tft import (
    SnapshotTrajectory,
    default_frequency_grid,
    extract_tft,
    snapshot_transfer_function,
)


@pytest.fixture(scope="module")
def rc_trajectory():
    circuit = build_rc_ladder(2, input_waveform=Sine(0.5, 0.3, 1e6))
    system = circuit.build()
    trajectory = SnapshotTrajectory(system)
    transient_analysis(system, TransientOptions(t_stop=1e-6, dt=10e-9),
                       snapshot_callback=trajectory)
    return system, trajectory


@pytest.fixture(scope="module")
def cs_tft():
    circuit = build_common_source_amplifier(input_waveform=Sine(0.55, 0.15, 1e5))
    system = circuit.build()
    trajectory = SnapshotTrajectory(system)
    transient_analysis(system, TransientOptions(t_stop=10e-6, dt=0.1e-6),
                       snapshot_callback=trajectory)
    tft = extract_tft(trajectory, frequency_grid(1e4, 1e11, 3), max_snapshots=60)
    return system, tft


class TestSnapshotTrajectory:
    def test_records_every_step(self, rc_trajectory):
        system, trajectory = rc_trajectory
        assert len(trajectory) > 50

    def test_times_monotonic(self, rc_trajectory):
        _, trajectory = rc_trajectory
        assert np.all(np.diff(trajectory.times) > 0)

    def test_input_excursion(self, rc_trajectory):
        _, trajectory = rc_trajectory
        lo, hi = trajectory.input_excursion()
        assert lo == pytest.approx(0.2, abs=0.02)
        assert hi == pytest.approx(0.8, abs=0.02)

    def test_subsample_reduces_count(self, rc_trajectory):
        _, trajectory = rc_trajectory
        thinned = trajectory.subsample(20)
        assert len(thinned) <= 20
        assert thinned[0].time == trajectory[0].time

    def test_subsample_too_small_rejected(self, rc_trajectory):
        _, trajectory = rc_trajectory
        with pytest.raises(ReproError):
            trajectory.subsample(1)

    def test_subsample_by_time_covers_nonuniform_grid(self):
        """Adaptive grids cluster steps on edges; time thinning must not."""
        circuit = build_rc_ladder(2, input_waveform=Sine(0.5, 0.3, 1e6))
        system = circuit.build()
        trajectory = SnapshotTrajectory(system)
        transient_analysis(
            system, TransientOptions(t_stop=1e-6, dt=1e-9, adaptive=True),
            snapshot_callback=trajectory)
        steps = np.diff(trajectory.times)
        assert steps.max() > 2.0 * steps.min()    # grid really is non-uniform
        thinned = trajectory.subsample(10, by="time")
        assert 2 <= len(thinned) <= 10
        # Selected times track the uniform targets within one local step.
        targets = np.linspace(trajectory.times[0], trajectory.times[-1],
                              len(thinned))
        assert np.all(np.abs(thinned.times - targets) <= steps.max())
        # Index thinning on the same trajectory oversamples the dense region.
        by_index = trajectory.subsample(10, by="index")
        assert np.max(np.diff(by_index.times)) >= np.max(np.diff(thinned.times))

    def test_subsample_unknown_axis_rejected(self, rc_trajectory):
        _, trajectory = rc_trajectory
        with pytest.raises(ReproError, match="subsample axis"):
            trajectory.subsample(10, by="steps")

    def test_describe_mentions_snapshot_count(self, rc_trajectory):
        _, trajectory = rc_trajectory
        assert str(len(trajectory)) in trajectory.describe()


class TestExtractTFT:
    def test_shapes(self, cs_tft):
        _, tft = cs_tft
        assert tft.response.shape == (tft.n_states, tft.n_frequencies, 1, 1)
        assert tft.dc_response.shape == (tft.n_states, 1, 1)
        assert tft.states.shape == (tft.n_states,)

    def test_linear_circuit_has_flat_state_axis(self, rc_trajectory):
        system, trajectory = rc_trajectory
        tft = extract_tft(trajectory, frequency_grid(1e4, 1e9, 3), max_snapshots=40)
        response = tft.siso_response()
        spread = np.max(np.abs(response - response[0][None, :]))
        assert spread < 1e-9
        # The state of each snapshot is the input at its time, x = u(t_k).
        assert np.array_equal(tft.state_axis(), trajectory.subsample(40).inputs()[:, 0])

    def test_matches_ac_analysis_at_dc_operating_point(self):
        # For a circuit held at DC, the TFT of the first snapshot must equal
        # the small-signal AC response about that operating point.
        circuit = build_common_source_amplifier(input_waveform=0.55)
        system = circuit.build()
        trajectory = SnapshotTrajectory(system)
        transient_analysis(system, TransientOptions(t_stop=1e-9, dt=1e-10),
                           snapshot_callback=trajectory)
        freqs = frequency_grid(1e5, 1e10, 3)
        tft = extract_tft(trajectory, freqs)
        ac = ac_analysis(system, freqs)
        assert np.allclose(tft.siso_response()[0], ac.transfer(), rtol=1e-6)

    def test_dc_gain_matches_low_frequency_response(self, cs_tft):
        _, tft = cs_tft
        low_freq = tft.siso_response()[:, 0]
        assert np.allclose(low_freq.real, tft.siso_dc().real, rtol=1e-2, atol=1e-3)

    def test_nonlinear_circuit_gain_varies_with_state(self, cs_tft):
        _, tft = cs_tft
        dc_gain = np.abs(tft.siso_dc())
        assert dc_gain.max() / max(dc_gain.min(), 1e-12) > 1.5

    def test_empty_trajectory_rejected(self):
        circuit = build_rc_ladder(1)
        system = circuit.build()
        with pytest.raises(ReproError):
            extract_tft(SnapshotTrajectory(system))

    def test_default_frequency_grid_span(self):
        grid = default_frequency_grid()
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(10e9)

    def test_outputs_recorded(self, cs_tft):
        _, tft = cs_tft
        assert tft.outputs is not None
        assert tft.outputs.shape[0] == tft.n_states


class TestTFTDataset:
    def test_gain_db_and_phase_shapes(self, cs_tft):
        _, tft = cs_tft
        assert tft.gain_db().shape == (tft.n_states, tft.n_frequencies)
        assert tft.phase_deg().shape == (tft.n_states, tft.n_frequencies)

    def test_dynamic_response_is_zero_at_dc(self, cs_tft):
        _, tft = cs_tft
        dynamic = tft.dynamic_response()
        assert np.max(np.abs(dynamic[:, 0])) < 1e-2 * np.max(np.abs(tft.siso_dc()))

    def test_sorted_by_state(self, cs_tft):
        _, tft = cs_tft
        ordered = tft.sorted_by_state()
        assert np.all(np.diff(ordered.state_axis()) >= 0)

    def test_describe_contains_shape(self, cs_tft):
        _, tft = cs_tft
        text = tft.describe()
        assert str(tft.n_states) in text


def serial_reference(trajectory, frequencies, max_snapshots=None):
    """``extract_tft``'s response arrays from one serial loop over the snapshots.

    The loop ``extract_tft`` ran before its snapshots were spread over the
    usable cores, kept as the reference the threaded transform must match
    bit for bit (and raise like).
    """
    if max_snapshots is not None:
        trajectory = trajectory.subsample(max_snapshots)
    frequencies = np.asarray(frequencies, dtype=float).ravel()
    shape = (len(trajectory), frequencies.size, trajectory.n_outputs,
             trajectory.n_inputs)
    response = np.empty(shape, dtype=complex)
    dc_response = np.empty((shape[0],) + shape[2:], dtype=complex)
    for k, snapshot in enumerate(trajectory):
        response[k], dc_response[k] = snapshot_transfer_function(
            snapshot, trajectory.input_matrix, trajectory.output_matrix,
            frequencies)
    return response, dc_response


def assert_same_bits(tft, reference):
    response, dc_response = reference
    np.testing.assert_array_equal(tft.response.view(np.uint64), response.view(np.uint64))
    np.testing.assert_array_equal(tft.dc_response.view(np.uint64),
                                  dc_response.view(np.uint64))


@pytest.fixture(params=[1, 2, 4], ids=lambda n: f"{n}core")
def cores(request, monkeypatch):
    """Pretend the process may run on ``n`` CPUs (4 is more than this box has)."""
    monkeypatch.setattr(linalg, "usable_cores", lambda: request.param)
    if request.param == 1:
        def no_pool(*args, **kwargs):
            raise AssertionError("one usable core must run inline, without a pool")
        monkeypatch.setattr(linalg, "ThreadPoolExecutor", no_pool)
    return request.param


def tiny_trajectory(snapshots):
    """A 3-unknown trajectory whose snapshots carry the given ``(G, C)`` pairs."""
    circuit = Circuit("tiny")
    circuit.voltage_source("Vin", "in", "0", Sine(0.0, 1.0, 1e3), is_input=True)
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.resistor("R2", "out", "0", 1e3)
    circuit.add_output("vout", "out")
    trajectory = SnapshotTrajectory(circuit.build())
    for k, (g_mat, c_mat) in enumerate(snapshots):
        trajectory.record(1e-6 * k, np.zeros(3), np.array([0.1 * k]), np.zeros(1),
                          g_mat, c_mat)
    return trajectory


class TestThreadedTFT:
    """Snapshots solved in contiguous ranges on the usable cores."""

    GRID = default_frequency_grid(1.0, 10e9, 4)

    def test_buffer_trajectory_matches_serial_loop(self, buffer_trajectory, cores):
        before = threading.enumerate()
        tft = extract_tft(buffer_trajectory, self.GRID, max_snapshots=110)
        assert threading.enumerate() == before
        assert tft.response.shape == (110, 41, 1, 1)
        assert_same_bits(tft, serial_reference(buffer_trajectory, self.GRID, 110))

    def test_sparse_assembly_trajectory(self, cores):
        system = build_rc_ladder(70, input_waveform=Sine(0.5, 0.3, 1e6)).build()
        assert system.compile("auto").is_sparse
        trajectory = SnapshotTrajectory(system)
        transient_analysis(system, TransientOptions(t_stop=1e-7, dt=1e-8),
                           snapshot_callback=trajectory)
        assert trajectory[0].order >= 64
        tft = extract_tft(trajectory, frequency_grid(1e4, 1e10, 2))
        assert_same_bits(tft, serial_reference(trajectory, frequency_grid(1e4, 1e10, 2)))

    def test_single_snapshot(self, buffer_trajectory, cores):
        single = SnapshotTrajectory(buffer_trajectory.system)
        single.snapshots = [buffer_trajectory[40]]
        tft = extract_tft(single, self.GRID)
        assert tft.response.shape[0] == 1
        assert_same_bits(tft, serial_reference(single, self.GRID))

    def test_lowest_singular_snapshot_raises_the_serial_loops_error(self, cores):
        """Snapshot 2 is singular at one frequency, snapshot 7 at s = 0."""
        frequencies = np.array([1e3, 1e5, 1e7])
        omega = (2j * np.pi * frequencies)[1].imag
        coupling = 1.0 / omega
        assert omega * coupling == 1.0        # G + j*omega*C is exactly singular
        regular = (np.diag([1.0, 2.0, 3.0]), 1e-9 * np.eye(3))
        resonant = (np.diag([1.0, -1.0, 1.0]),
                    np.array([[0.0, coupling, 0.0], [coupling, 0.0, 0.0],
                              [0.0, 0.0, 0.0]]))
        floating = (np.zeros((3, 3)), np.eye(3))
        trajectory = tiny_trajectory([regular] * 2 + [resonant] + [regular] * 4
                                     + [floating] + [regular] * 2)
        with pytest.raises(SingularMatrixError) as serial:
            serial_reference(trajectory, frequencies)
        assert "f=1e+05 Hz" in str(serial.value)
        before = threading.enumerate()
        with pytest.raises(SingularMatrixError) as threaded:
            extract_tft(trajectory, frequencies)
        assert threading.enumerate() == before
        assert str(threaded.value) == str(serial.value)
        assert type(threaded.value.__cause__) is type(serial.value.__cause__)
