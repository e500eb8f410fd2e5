"""Shared fixtures for the benchmark harness.

Every figure/table of the paper's evaluation is regenerated from the same
training data: the four-stage output buffer driven by one period of the
low-frequency high-amplitude sine (~100 Jacobian snapshots).  The expensive
artefacts (training transient, TFT transform, extracted models, bit-pattern
reference transient) are computed once per session and shared.
"""

import pytest

from repro.baselines import extract_caffeine_model
from repro.circuit import TransientOptions, transient_analysis
from repro.circuits import build_output_buffer, buffer_test_pattern, buffer_training_waveform
from repro.rvf import RVFOptions, extract_rvf_model, simulate_hammerstein
from repro.tft import SnapshotTrajectory, default_frequency_grid, extract_tft

#: Error bound used throughout the paper's evaluation.
ERROR_BOUND = 1e-3


@pytest.fixture(scope="session")
def buffer_training():
    """Training trajectory of the output buffer (paper Section IV)."""
    waveform = buffer_training_waveform()
    circuit = build_output_buffer(input_waveform=waveform)
    system = circuit.build()
    trajectory = SnapshotTrajectory(system)
    period = 1.0 / waveform.frequency
    result = transient_analysis(system, TransientOptions(t_stop=period, dt=period / 150),
                                snapshot_callback=trajectory)
    return {"circuit": circuit, "system": system, "trajectory": trajectory,
            "transient": result, "waveform": waveform}


@pytest.fixture(scope="session")
def buffer_tft(buffer_training):
    """TFT hyperplane of the buffer (the data behind Fig. 6)."""
    return extract_tft(buffer_training["trajectory"],
                       default_frequency_grid(1.0, 10e9, 4), max_snapshots=110)


@pytest.fixture(scope="session")
def rvf_extraction(buffer_tft):
    """RVF model of the buffer (Fig. 7 / Table I row 1)."""
    return extract_rvf_model(buffer_tft, RVFOptions(error_bound=ERROR_BOUND))


@pytest.fixture(scope="session")
def caffeine_extraction(buffer_tft):
    """CAFFEINE baseline model of the buffer (Fig. 8 / Table I row 2)."""
    return extract_caffeine_model(buffer_tft, error_bound=ERROR_BOUND, generations=25)


@pytest.fixture(scope="session")
def bitpattern_reference():
    """Transistor-level reference response to the 2.5 GS/s bit pattern (Fig. 9)."""
    pattern = buffer_test_pattern(n_bits=24, bit_rate=2.5e9)
    circuit = build_output_buffer(input_waveform=pattern, name="buffer_bitpattern")
    system = circuit.build()
    result = transient_analysis(system, TransientOptions(t_stop=pattern.duration, dt=10e-12))
    return {"pattern": pattern, "result": result}


@pytest.fixture(scope="session")
def model_responses(rvf_extraction, caffeine_extraction, bitpattern_reference):
    """Bit-pattern responses of both extracted models (Fig. 9 traces)."""
    reference = bitpattern_reference["result"]
    responses = {}
    for name, extraction in (("rvf", rvf_extraction), ("caffeine", caffeine_extraction)):
        responses[name] = simulate_hammerstein(extraction.model, reference.times,
                                               reference.inputs[:, 0])
    return responses
