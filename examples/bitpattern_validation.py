"""Reproduce the paper's Fig. 9 and Table I: bit-pattern validation.

The extracted RVF model and the CAFFEINE baseline are driven with the same
spectrally rich 2.5 GS/s bit pattern as the transistor-level buffer, and the
accuracy / build-time / speed-up comparison of Table I is printed.

Run with:  python examples/bitpattern_validation.py
(set REPRO_EXAMPLES_SMOKE=1 for a reduced-workload smoke run)
"""

import os

import numpy as np

from repro.analysis import (
    ComparisonTable,
    ModelComparisonRow,
    surface_rmse_db,
    time_domain_rmse,
)
from repro.baselines import extract_caffeine_model
from repro.circuit import TransientOptions, transient_analysis
from repro.circuits import build_output_buffer, buffer_test_pattern, buffer_training_waveform
from repro.rvf import RVFOptions, extract_rvf_model, simulate_hammerstein
from repro.tft import SnapshotTrajectory, default_frequency_grid, extract_tft

#: Reduced workload for CI smoke runs (REPRO_EXAMPLES_SMOKE=1).
SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE", "") not in ("", "0")
N_BITS = 12 if SMOKE else 32
CAFFEINE_GENERATIONS = 10 if SMOKE else 25


def main():
    # ------------------------------------------------------------------ train
    training = buffer_training_waveform()
    circuit = build_output_buffer(input_waveform=training)
    system = circuit.build()
    period = 1.0 / training.frequency
    trajectory = SnapshotTrajectory(system)
    transient_analysis(system, TransientOptions(t_stop=period, dt=period / 150),
                       snapshot_callback=trajectory)
    tft = extract_tft(trajectory, default_frequency_grid(1.0, 10e9, 4), max_snapshots=110)

    rvf = extract_rvf_model(tft, RVFOptions(error_bound=1e-3))
    caffeine = extract_caffeine_model(tft, error_bound=1e-3,
                                      generations=CAFFEINE_GENERATIONS)
    print(rvf.summary())
    print(caffeine.summary())

    # --------------------------------------------------------------- validate
    pattern = buffer_test_pattern(n_bits=N_BITS, bit_rate=2.5e9)
    test_circuit = build_output_buffer(input_waveform=pattern, name="buffer_under_test")
    test_system = test_circuit.build()
    reference = transient_analysis(test_system,
                                   TransientOptions(t_stop=pattern.duration, dt=10e-12))
    print(f"\nReference SPICE transient: {reference.n_points} points, "
          f"{reference.wall_time:.2f} s")

    table = ComparisonTable()
    data = tft.siso_response()
    for name, extraction in (("RVF", rvf), ("CAFF", caffeine)):
        model = extraction.model
        sim = simulate_hammerstein(model, reference.times, reference.inputs[:, 0])
        rmse_td = time_domain_rmse(reference.outputs[:, 0], sim.outputs)
        rmse_db = surface_rmse_db(data, extraction.model_surface())
        build = model.metadata.build_time_seconds
        speedup = reference.wall_time / sim.wall_time
        automated = name == "RVF"
        table.add(ModelComparisonRow(name, rmse_db, rmse_td, build, speedup, automated))
        print(f"{name}: time-domain RMSE {rmse_td:.4f} over an output swing of "
              f"{np.ptp(reference.outputs):.3f} V, model evaluation {sim.wall_time*1e3:.1f} ms")

    print("\nTable I (reproduced):")
    print(table.render())
    print("\nPaper's Table I for reference: RVF -62 dB / 0.0098 / 2 min / 7x / YES,"
          "\n                               CAFF -22 dB / 0.0138 / 7 min / 12x / NO")


if __name__ == "__main__":
    main()
