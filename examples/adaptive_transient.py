"""Adaptive LTE-controlled time stepping on the paper's validation stimulus.

The 2.5 GS/s bit pattern of the paper spends most of its time on flat bit
tops and all of its action in 100 ps raised-cosine edges.  A fixed time step
must resolve the edges everywhere; the LTE controller instead estimates each
step's local truncation error from the predictor-corrector difference and
lets ``dt`` breathe between ``dt * MIN_DT_FACTOR`` and ``dt * max_dt_factor``.

The script runs the four-stage output buffer under a PRBS pattern twice —
once on a fine fixed grid, once adaptively — and reports the step count,
rejection statistics and the deviation between the two trajectories.

Run with:  python examples/adaptive_transient.py
(set REPRO_EXAMPLES_SMOKE=1 for a reduced-workload smoke run)
"""

import os

import numpy as np

from repro.circuit import TransientOptions, transient_analysis
from repro.circuits import build_output_buffer
from repro.circuits.buffer import buffer_test_pattern

#: Reduced workload for CI smoke runs (REPRO_EXAMPLES_SMOKE=1).
SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE", "") not in ("", "0")
N_BITS = 8 if SMOKE else 16


def main() -> None:
    waveform = buffer_test_pattern(n_bits=N_BITS)
    system = build_output_buffer(input_waveform=waveform).build()
    bit_period = 1.0 / waveform.bit_rate
    t_stop = N_BITS * bit_period
    dt = bit_period / 160

    print(f"stimulus: {N_BITS} bits at {waveform.bit_rate / 1e9:.1f} GS/s, "
          f"t_stop = {t_stop * 1e9:.2f} ns")

    fixed = transient_analysis(system, TransientOptions(t_stop=t_stop, dt=dt))
    print(f"fixed dt = {dt * 1e12:.2f} ps: {fixed.accepted_steps} steps, "
          f"{fixed.newton_iterations} Newton iterations, "
          f"{fixed.wall_time * 1e3:.1f} ms")

    adaptive = transient_analysis(system, TransientOptions(
        t_stop=t_stop, dt=dt, adaptive=True,
        lte_rel_tol=1e-3, max_dt_factor=40.0))
    steps = np.diff(adaptive.times)
    print(f"adaptive:   {adaptive.accepted_steps} steps "
          f"({adaptive.rejected_steps} rejected, "
          f"{adaptive.lte_rejections} by the LTE controller), "
          f"{adaptive.newton_iterations} Newton iterations, "
          f"{adaptive.wall_time * 1e3:.1f} ms")
    print(f"            dt swung {steps.min() * 1e15:.1f} fs ... "
          f"{steps.max() * 1e12:.1f} ps "
          f"({steps.max() / steps.min():.0f}x dynamic range)")

    # The adaptive grid is non-uniform: resample before comparing waveforms.
    served = adaptive.resample(fixed.times)
    reference = fixed.outputs[:, 0]
    rel_rmse = (np.sqrt(np.mean((served - reference) ** 2))
                / np.sqrt(np.mean(reference ** 2)))
    print(f"agreement:  relative RMSE {rel_rmse:.2e} with "
          f"{fixed.accepted_steps / adaptive.accepted_steps:.1f}x fewer steps")


if __name__ == "__main__":
    main()
