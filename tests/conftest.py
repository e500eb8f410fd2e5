"""Shared fixtures: a small nonlinear circuit and its extracted RVF model.

The fixtures are session-scoped because the training transient and the model
extraction are the expensive parts of the pipeline; many test modules can
share one extraction.
"""

import pytest

from repro.checks import lockwatch
from repro.circuit import Circuit, CubicConductance, Sine, TransientOptions, transient_analysis
from repro.circuits import build_output_buffer, buffer_training_waveform
from repro.rvf import RVFOptions, extract_rvf_model
from repro.tft import SnapshotTrajectory, default_frequency_grid, extract_tft


@pytest.fixture(scope="session", autouse=True)
def lockwatch_gate():
    """Make runtime lock violations fatal when REPRO_LOCKWATCH=1 is set.

    The serving-stack locks are lockwatch-instrumented whenever the watcher
    is active, so simply running the suite exercises the sanitizer on real
    traffic; this gate turns anything it recorded into a session failure.
    """
    yield
    if lockwatch.is_enabled():
        lockwatch.assert_clean()


def build_nonlinear_lowpass(waveform, name="nonlinear_lowpass"):
    """Driven RC network with a saturating (cubic) shunt conductance."""
    circuit = Circuit(name)
    circuit.voltage_source("Vin", "in", "0", waveform, is_input=True)
    circuit.resistor("Rs", "in", "mid", 1e3)
    circuit.add(CubicConductance("Gnl", "mid", "0", g1=1e-3, g3=4e-4))
    circuit.capacitor("C1", "mid", "0", 2e-9)
    circuit.resistor("R2", "mid", "out", 2e3)
    circuit.capacitor("C2", "out", "0", 0.5e-9)
    circuit.resistor("RL", "out", "0", 10e3)
    circuit.add_output("vout", "out")
    return circuit


@pytest.fixture(scope="session")
def nonlinear_tft():
    """TFT dataset of the nonlinear low-pass trained with a quasi-static sine."""
    circuit = build_nonlinear_lowpass(Sine(offset=0.6, amplitude=0.5, frequency=1e3))
    system = circuit.build()
    trajectory = SnapshotTrajectory(system)
    transient_analysis(system, TransientOptions(t_stop=1e-3, dt=5e-6),
                       snapshot_callback=trajectory)
    return extract_tft(trajectory, default_frequency_grid(1e3, 1e9, 4), max_snapshots=100)


@pytest.fixture(scope="session")
def nonlinear_rvf(nonlinear_tft):
    """RVF extraction result for the nonlinear low-pass."""
    return extract_rvf_model(nonlinear_tft, RVFOptions(error_bound=1e-3))


@pytest.fixture(scope="session")
def buffer_trajectory():
    """Jacobian snapshots of the paper's output buffer over one training period.

    The same flow as the repository benchmark's ``extract`` workload: the
    2 MHz training sine, 150 fixed steps per period.
    """
    waveform = buffer_training_waveform()
    system = build_output_buffer(input_waveform=waveform).build()
    trajectory = SnapshotTrajectory(system)
    period = 1.0 / waveform.frequency
    transient_analysis(system, TransientOptions(t_stop=period, dt=period / 150),
                       snapshot_callback=trajectory)
    return trajectory


@pytest.fixture(scope="session")
def buffer_tft(buffer_trajectory):
    """The buffer's TFT: 110 snapshots x 41 frequencies (1 Hz .. 10 GHz)."""
    return extract_tft(buffer_trajectory, default_frequency_grid(1.0, 10e9, 4),
                       max_snapshots=110)
