"""Workload inputs drawn from the seed, and the paper's extraction flow.

Everything the program receives is generated here from ``--seed``: the
held-out validation sines, the stimulus rows served in ``bulk`` and
``interactive``, and the Poisson arrival schedule.  Each purpose draws from
its own NumPy stream, so the same seed always gives the same inputs.

:func:`extract_validated` is the paper's Section IV flow on the four-stage
output buffer: training transient with snapshot capture → TFT → RVF →
compile → validation against the engine on held-out sines.  It calls
``repro`` only through its public API and records the counters the program
hands back for free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.circuit import Sine, TransientOptions, transient_analysis
from repro.circuits import build_output_buffer, buffer_training_waveform
from repro.runtime import CompiledModel, compile_model, validate_model
from repro.rvf import RVFOptions, extract_rvf_model
from repro.sweep import waveform_sweep
from repro.tft import SnapshotTrajectory, default_frequency_grid, extract_tft

#: The paper's error bound epsilon for the RVF fit.
ERROR_BOUND = 1e-3
#: Training transient resolution: dt = period / STEPS_PER_PERIOD.
STEPS_PER_PERIOD = 150
#: TFT size: snapshots x frequencies (4 per decade over 1 Hz .. 10 GHz).
MAX_SNAPSHOTS = 110
FREQUENCY_GRID = (1.0, 10e9, 4)
#: Held-out validation sines: (amplitude V, frequency Hz) design points, each
#: jittered by +-JITTER from the seed.  They span small to large swings and
#: sub- to super-training frequencies; the jitter keeps every draw near its
#: design point, so the worst-case error is a steady figure across seeds.
HELDOUT_DESIGN = ((0.45, 3.0e6), (0.30, 1.5e6), (0.15, 2.5e6))
JITTER = 0.05

#: Independent random streams, one per purpose.
STREAM_HELDOUT, STREAM_BULK, STREAM_INTERACTIVE, STREAM_SCHEDULE = range(4)


def rng_for(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream), int(index)])


def heldout_sines(rng: np.random.Generator) -> list[Sine]:
    """One held-out validation set (one sine per design point)."""
    offset = buffer_training_waveform().offset
    return [Sine(offset=offset,
                 amplitude=amplitude * (1.0 + rng.uniform(-JITTER, JITTER)),
                 frequency=frequency * (1.0 + rng.uniform(-JITTER, JITTER)))
            for amplitude, frequency in HELDOUT_DESIGN]


def stimulus_rows(rng: np.random.Generator, n_rows: int, n_steps: int,
                  dt: float, offset: float) -> np.ndarray:
    """``(n_rows, n_steps)`` stimuli on the model grid: two sines per row.

    Amplitudes keep every row inside the 0.4–1.4 V training excursion, and
    frequencies stay within a decade of the 2 MHz training sine.
    """
    times = dt * np.arange(n_steps)
    rows = np.full((n_rows, n_steps), float(offset))
    for _ in range(2):
        amplitude = rng.uniform(0.05, 0.25, (n_rows, 1))
        frequency = 10.0 ** rng.uniform(5.5, 7.0, (n_rows, 1))
        phase = rng.uniform(0.0, 2.0 * np.pi, (n_rows, 1))
        rows += amplitude * np.sin(2.0 * np.pi * frequency * times + phase)
    return rows


def poisson_schedule(rng: np.random.Generator, rate: float,
                     seconds: float) -> np.ndarray:
    """Arrival offsets (s) of independent users at ``rate`` requests/s."""
    gaps = rng.exponential(1.0 / rate, int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


@dataclass
class Extraction:
    """Result of one pass of the flow, with the program's own counters."""

    compiled: CompiledModel
    model: object
    dt: float
    input_range: tuple[float, float]
    offset: float
    wall_s: float
    max_rel_rmse: float
    validated_rows: int
    counters: dict


def extract_validated(heldout: list[Sine] | None, recorder) -> Extraction:
    """Netlist to validated compiled model (validation skipped if None)."""
    start = time.perf_counter()
    with recorder.span("build"):
        waveform = buffer_training_waveform()
        system = build_output_buffer(input_waveform=waveform).build()
        trajectory = SnapshotTrajectory(system)
    period = 1.0 / waveform.frequency
    dt = period / STEPS_PER_PERIOD
    transient = TransientOptions(t_stop=period, dt=dt)
    with recorder.span("transient_analysis"):
        result = transient_analysis(system, transient,
                                    snapshot_callback=trajectory)
    with recorder.span("extract_tft"):
        dataset = extract_tft(trajectory,
                              default_frequency_grid(*FREQUENCY_GRID),
                              max_snapshots=MAX_SNAPSHOTS)
    with recorder.span("extract_rvf_model"):
        extraction = extract_rvf_model(dataset,
                                       RVFOptions(error_bound=ERROR_BOUND))
    states = dataset.state_axis()
    input_range = (float(states.min()), float(states.max()))
    with recorder.span("compile_model"):
        compiled = compile_model(extraction.model, dt=dt,
                                 input_range=input_range)
    max_rel_rmse, engine_s, model_s, rows = 0.0, 0.0, 0.0, 0
    if heldout:
        scenarios = waveform_sweep(build_output_buffer, heldout,
                                   transient=transient)
        with recorder.span("validate_model"):
            report = validate_model(compiled, scenarios)
        max_rel_rmse = float(report.max_relative_rmse)
        engine_s, model_s = report.sim_wall_time, report.model_wall_time
        rows = report.n_scenarios
    wall = time.perf_counter() - start
    response = dataset.response
    counters = {
        "circuit.newton_iterations": result.newton_iterations,
        "circuit.lu_factorizations": result.cache_factorizations,
        "circuit.lu_reuses": result.cache_reuses,
        "circuit.lu_solves": result.cache_solves,
        "circuit.steps_rejected": result.rejected_steps,
        # One complex solve per snapshot and frequency, plus the DC solve.
        "tft.solves": int(response.shape[0] * (response.shape[1] + 1)),
        "vectfit.orders_tried": len(extraction.frequency_report.orders_tried),
        "vectfit.iterations": extraction.frequency_report.result.iterations,
        "rvf.state_orders_tried": len(extraction.state_report.orders_tried),
        "rvf.frequency_poles": extraction.n_frequency_poles,
        "rvf.state_poles": extraction.n_state_poles,
        "runtime.validate_engine_s": engine_s,
        "runtime.validate_model_s": model_s,
    }
    return Extraction(compiled=compiled, model=extraction.model, dt=dt,
                      input_range=input_range, offset=waveform.offset,
                      wall_s=wall, max_rel_rmse=max_rel_rmse,
                      validated_rows=rows, counters=counters)
