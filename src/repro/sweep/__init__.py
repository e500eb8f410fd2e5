"""Batched scenario sweeps: one circuit family, many stimuli and corners.

The paper's extraction flow consumes Jacobian snapshots sampled along *one*
training transient.  In practice a trustworthy macromodel needs trajectory
*families*: the same circuit driven by several waveforms (amplitudes,
frequencies, bit patterns) and built at several parameter corners, so the
TFT hyperplane is sampled over the whole reachable state space and the
extracted model can be validated against stimuli it was not trained on.

This subpackage turns that into a one-call workflow:

1. Describe each run as a :class:`~repro.sweep.scenarios.Scenario` — a
   picklable circuit *builder* plus its keyword arguments, an optional input
   waveform and per-run transient options.  Helpers
   (:func:`~repro.sweep.scenarios.waveform_sweep`,
   :func:`~repro.sweep.scenarios.corner_sweep`,
   :func:`~repro.sweep.scenarios.cross_sweep`) fan a base configuration
   across waveform lists and parameter grids.
2. :func:`~repro.sweep.runner.run_sweep` executes the scenarios — serially
   or on a multiprocessing pool, each worker rebuilding its circuit and
   capturing its own :class:`~repro.tft.SnapshotTrajectory` — and returns a
   :class:`~repro.sweep.runner.SweepResult`.
3. The result feeds straight into the TFT flow:
   :meth:`~repro.sweep.runner.SweepResult.trajectories` yields one
   snapshot trajectory per scenario for :func:`~repro.tft.extract_tft`, and
   :meth:`~repro.sweep.runner.SweepResult.combined_trajectory` /
   :meth:`~repro.sweep.runner.SweepResult.extract_combined_tft` merge the
   snapshot families of same-topology scenarios into a single dataset whose
   state axis covers the union of all input excursions — exactly the
   ``{C(k), G(k), B, D}`` collection Algorithm 1 consumes, just sampled from
   many transients instead of one.

Every simulation inside a sweep uses the compiled sparse/dense assembly
engine (:mod:`repro.circuit.assembly`), so wide sweeps inherit the
factor-cached fast path for free.
"""

from .runner import ScenarioResult, SweepOptions, SweepResult, run_sweep
from .scenarios import Scenario, corner_sweep, cross_sweep, waveform_sweep

__all__ = [
    "Scenario",
    "waveform_sweep",
    "corner_sweep",
    "cross_sweep",
    "run_sweep",
    "SweepOptions",
    "SweepResult",
    "ScenarioResult",
]
