"""Print a fingerprint of every output of the extraction flows.

Each line is the first 16 hex digits of the SHA-256 of one output's bytes,
then its name.  The outputs are those of the paper's Section IV flow on the
four-stage output buffer: the training TFT (one period at ``dt =
period/150``, 110 snapshots, 4 frequencies per decade over 1 Hz .. 10 GHz),
the RVF and CAFFEINE models extracted from it at the error bound 1e-3, their
responses to the 24-bit 2.5 GS/s test pattern at 10 ps, the RVF model's
exports and compiled registry key, its validation RMSE on three fixed
held-out sines, and the buffer's AC response.

    python tools/flow_fingerprints.py

Two trees that print the same lines compute every one of these outputs bit
for bit alike.  Bits may differ between BLAS builds, so compare runs of one
machine.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.baselines import extract_caffeine_model
from repro.circuit import Sine, TransientOptions, ac_analysis, frequency_grid, transient_analysis
from repro.circuits import build_output_buffer, buffer_test_pattern, buffer_training_waveform
from repro.runtime import compile_model, content_hash, validate_model
from repro.rvf import (RVFOptions, extract_rvf_model, model_equations, simulate_hammerstein,
                       to_verilog_a)
from repro.sweep import waveform_sweep
from repro.tft import SnapshotTrajectory, default_frequency_grid, extract_tft

ERROR_BOUND = 1e-3
CAFFEINE_GENERATIONS = 25
#: Held-out validation sines as (amplitude V, frequency Hz) about the training
#: offset: small to large swings, sub- to super-training frequencies.
HELDOUT = ((0.45, 3.0e6), (0.30, 1.5e6), (0.15, 2.5e6))


def fingerprint(*parts) -> str:
    """SHA-256 prefix over arrays (dtype, shape and bytes), text and scalars."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
            digest.update(f"{part.dtype}{part.shape}".encode())
            digest.update(part.tobytes())
        elif isinstance(part, float):
            digest.update(part.hex().encode())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()[:16]


def flow_outputs():
    """``(name, fingerprint)`` for each output, in flow order."""
    waveform = buffer_training_waveform()
    system = build_output_buffer(input_waveform=waveform).build()
    trajectory = SnapshotTrajectory(system)
    period = 1.0 / waveform.frequency
    transient = TransientOptions(t_stop=period, dt=period / 150)
    transient_analysis(system, transient, snapshot_callback=trajectory)
    tft = extract_tft(trajectory, default_frequency_grid(1.0, 10e9, 4), max_snapshots=110)
    yield "tft.state_axis", fingerprint(tft.state_axis())
    yield "tft.response", fingerprint(tft.response, tft.dc_response)
    yield "tft.sorted_state_axis", fingerprint(tft.sorted_by_state().state_axis())

    pattern = buffer_test_pattern(n_bits=24, bit_rate=2.5e9)
    times = 10e-12 * np.arange(int(round(pattern.duration / 10e-12)) + 1)
    inputs = np.array([pattern(t) for t in times])

    rvf = extract_rvf_model(tft, RVFOptions(error_bound=ERROR_BOUND))
    yield "rvf.surface", fingerprint(rvf.model_surface())
    yield "rvf.orders", fingerprint(rvf.n_frequency_poles, rvf.n_state_poles)
    yield "rvf.bitpattern", fingerprint(simulate_hammerstein(rvf.model, times, inputs).outputs)
    yield "rvf.equations", fingerprint(model_equations(rvf.model))
    yield "rvf.verilog_a", fingerprint(to_verilog_a(rvf.model))
    states = tft.state_axis()
    compiled = compile_model(rvf.model, dt=transient.dt,
                             input_range=(float(states.min()), float(states.max())))
    yield "rvf.compiled_key", content_hash(compiled)[:16]
    heldout = [Sine(offset=waveform.offset, amplitude=amplitude, frequency=frequency)
               for amplitude, frequency in HELDOUT]
    report = validate_model(compiled, waveform_sweep(build_output_buffer, heldout,
                                                     transient=transient))
    yield "rvf.heldout_rmse", fingerprint(float(report.max_relative_rmse))

    caffeine = extract_caffeine_model(tft, error_bound=ERROR_BOUND,
                                      generations=CAFFEINE_GENERATIONS)
    yield "caffeine.surface", fingerprint(caffeine.model_surface())
    yield "caffeine.residue_errors", fingerprint(np.array(caffeine.residue_errors))
    yield "caffeine.bitpattern", fingerprint(
        simulate_hammerstein(caffeine.model, times, inputs).outputs)
    yield "caffeine.fully_automated", fingerprint(caffeine.fully_automated)

    ac = ac_analysis(system, frequency_grid(1e5, 30e9, 6))
    yield "ac.buffer", fingerprint(ac.response)


def main() -> int:
    for name, value in flow_outputs():
        print(f"{value}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
