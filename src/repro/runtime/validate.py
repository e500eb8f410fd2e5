"""Model-vs-simulator validation of compiled surrogates.

The paper's whole premise is that the extracted model *replaces* the
transistor-level circuit; a served surrogate is only trustworthy while
somebody measures how far it drifts from the simulator it replaced.  This
harness replays a :mod:`repro.sweep` scenario family through both paths —

1. the full nonlinear circuit via the compiled :mod:`assembly
   <repro.circuit.assembly>` transient engine (``run_sweep``), and
2. the compiled model via the batched runtime kernel, every scenario's
   stimulus stacked into one lock-step evaluation —

and reports per-scenario error metrics through :mod:`repro.analysis`.  The
headline figure is each scenario's *relative* time-domain RMSE (RMSE over the
RMS of the simulator reference), compared against the extraction's recorded
``error_bound``: a model that met the bound on its training hyperplane should
stay within the same order of magnitude on stimuli from the family it was
trained for.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from ..analysis import BatchErrorReport, ascii_table, batched_waveform_errors
from ..exceptions import ModelError
from ..sweep import SweepOptions, run_sweep
from ..sweep.runner import SweepResult
from .compiled import CompiledModel

__all__ = ["ValidationRow", "ValidationReport", "validate_model"]


@dataclass
class ValidationRow:
    """Per-scenario outcome of a validation replay."""

    name: str
    n_steps: int
    rmse: float
    relative_rmse: float
    max_abs_error: float

    def cells(self) -> list[str]:
        return [self.name, str(self.n_steps), f"{self.rmse:.3e}",
                f"{self.relative_rmse:.3e}", f"{self.max_abs_error:.3e}"]


@dataclass
class ValidationReport:
    """Sim-vs-model comparison of one scenario family."""

    rows: list[ValidationRow]
    error_bound: float | None
    #: Engine seconds of the reference sweep: the sum of its scenarios' wall
    #: times, in which a transient family's time is split equally.
    sim_wall_time: float
    model_wall_time: float
    errors: BatchErrorReport | None = field(repr=False, default=None)

    HEADER = ["Scenario", "Steps", "RMSE", "Relative RMSE", "Max abs error"]

    @property
    def n_scenarios(self) -> int:
        return len(self.rows)

    @property
    def max_relative_rmse(self) -> float:
        return max(row.relative_rmse for row in self.rows)

    @property
    def within_bound(self) -> bool:
        """Whether every scenario's relative RMSE meets the error bound.

        False when no bound is known — an unbounded validation can only be
        inspected, not passed.
        """
        if self.error_bound is None:
            return False
        return self.max_relative_rmse <= self.error_bound

    @property
    def speedup(self) -> float:
        """Wall-clock ratio full-engine sweep vs batched model evaluation."""
        return self.sim_wall_time / self.model_wall_time \
            if self.model_wall_time > 0 else np.inf

    def render(self) -> str:
        return ascii_table(self.HEADER, [row.cells() for row in self.rows])

    def summary(self) -> str:
        bound = "no bound" if self.error_bound is None else f"bound {self.error_bound:.1e}"
        verdict = "PASS" if self.within_bound else "no-pass"
        return (f"validated {self.n_scenarios} scenario(s): max relative RMSE "
                f"{self.max_relative_rmse:.2e} ({bound}: {verdict}), "
                f"sim {self.sim_wall_time:.2f}s vs model "
                f"{self.model_wall_time * 1e3:.1f}ms ({self.speedup:.0f}x)")


def validate_model(model: CompiledModel, scenarios,
                   error_bound: float | None = None,
                   sweep_options: SweepOptions | None = None,
                   sweep_result: SweepResult | None = None) -> ValidationReport:
    """Replay a scenario family through simulator and compiled model.

    Parameters
    ----------
    model:
        The compiled model under test (its ``dt`` defines the comparison
        grid; the simulator output is interpolated onto it).
    scenarios:
        The :class:`~repro.sweep.scenarios.Scenario` family — waveform/corner
        variations of the circuit the model was extracted from.  Every
        scenario must share the transient time span so the stimuli stack into
        one batch.
    error_bound:
        Bound for :attr:`ValidationReport.within_bound`; defaults to the
        extraction's bound recorded in the compiled model's metadata.
    sweep_options:
        Forwarded to :func:`repro.sweep.run_sweep` (snapshots are disabled —
        validation only needs waveforms).  Serially, scenarios of one
        circuit and time grid simulate as one transient family.
    sweep_result:
        Pre-computed sweep of exactly these scenarios, to avoid re-simulating
        (e.g. when the training sweep doubles as the validation reference).
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ModelError("validate_model needs at least one scenario")
    spans = {s.transient.t_stop for s in scenarios}
    if len(spans) > 1:
        raise ModelError(
            f"scenarios span different time windows {sorted(spans)}; "
            "a validation batch shares one grid")

    if sweep_result is None:
        opts = sweep_options or SweepOptions()
        opts = SweepOptions(n_workers=opts.n_workers, capture_snapshots=False,
                            raise_on_error=True)
        sweep_result = run_sweep(scenarios, opts)
    else:
        if sweep_result.names != [s.name for s in scenarios]:
            raise ModelError(
                f"sweep_result covers scenarios {sweep_result.names}, not the "
                f"requested {[s.name for s in scenarios]}; pass the sweep of "
                "exactly these scenarios (same order)")
        if sweep_result.failed:
            raise ModelError(
                "sweep_result contains failed scenarios "
                f"{[r.name for r in sweep_result.failed]}; a validation "
                "reference must have simulated every scenario")
    sim_wall = sum(r.wall_time for r in sweep_result.results)

    t_stop, = spans
    times = model.dt * np.arange(int(np.floor(t_stop / model.dt)) + 1)

    # Stack each scenario's *input* onto the model grid, serve the batch, and
    # compare against the simulator output resampled onto the same grid.
    # The simulator time axis is strictly increasing but not necessarily
    # uniform — adaptive (LTE-controlled) transients place steps densely on
    # fast transitions and sparsely elsewhere — so both waveforms go through
    # linear interpolation onto the compiled model's uniform ``dt`` before
    # any RMSE is computed (the contract of ``TransientResult.resample``).
    stimuli = np.empty((len(scenarios), times.size))
    reference = np.empty_like(stimuli)
    for row, result in enumerate(sweep_result.results):
        transient = result.transient
        stimuli[row] = np.interp(times, transient.times, transient.inputs[:, 0])
        reference[row] = transient.resample(times)

    model_start = _time.perf_counter()
    served = model.evaluate(stimuli)
    model_wall = _time.perf_counter() - model_start

    errors = batched_waveform_errors(reference, served)
    rows = [ValidationRow(name=scenario.name, n_steps=times.size,
                          rmse=float(errors.rmse[i]),
                          relative_rmse=float(errors.relative_rmse[i]),
                          max_abs_error=float(errors.max_abs_error[i]))
            for i, scenario in enumerate(scenarios)]

    if error_bound is None:
        error_bound = model.error_bound
    return ValidationReport(rows=rows, error_bound=error_bound,
                            sim_wall_time=sim_wall, model_wall_time=model_wall,
                            errors=errors)
