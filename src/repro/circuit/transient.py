"""Nonlinear transient analysis with Jacobian-snapshot capture.

The transient solver integrates the MNA descriptor system

.. math:: \\frac{d}{dt} q(v) + i(v) = B u(t) + b_{fixed}(t)

with backward Euler or the trapezoidal rule, solving a damped Newton iteration
at every time step.  Whenever a step is accepted the solver can hand the
already-evaluated Jacobians ``G(t_k)`` and ``C(t_k)`` to a *snapshot callback*
— this is the reproduction of the paper's "subsequent snapshots of the
internal circuit Jacobian are sampled during time-domain analysis" and is what
feeds the Transfer Function Trajectory extraction.

A *family* — several systems of one circuit that differ only in their
stimuli — integrates on one shared fixed grid: the devices of every row are
evaluated in one stacked call per Newton iteration, and each row stays
byte-equal to its own run (see :func:`transient_analysis`).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..exceptions import ConvergenceError, SingularMatrixError
from .assembly import CompiledMNA, select_engine
from .dc import GMIN, dc_operating_point
from .linalg import FactorizationCache
from .mna import MNASystem
from .newton import NewtonResult, newton_solve

__all__ = ["TransientOptions", "TransientResult", "SnapshotCallback", "transient_analysis"]

#: Newton iteration budget of one time step.
NEWTON_ITERATIONS = 50
#: Smallest step, as a multiple of the nominal ``dt``, allowed when halving
#: after a Newton failure or shrinking after an LTE rejection.
MIN_DT_FACTOR = 1e-4
#: Most accepted points kept (guards against runaway loops).
MAX_POINTS = 2_000_000
#: Absolute weight of the LTE norm: a step is accepted when
#: ``rms(lte / (LTE_ABS_TOL + lte_rel_tol * |v|)) <= 1``.
LTE_ABS_TOL = 1e-6
#: Safety factor on the optimal-step formula and the per-step growth /
#: shrink clamps of the adaptive controller (standard values).
LTE_SAFETY = 0.9
MAX_GROWTH = 2.0
MIN_SHRINK = 0.2


class SnapshotCallback(Protocol):
    """Interface of the per-step snapshot recorder.

    ``record`` is called once per accepted time step with the time, solution,
    input vector, output vector and the static/dynamic Jacobians evaluated at
    the accepted solution.  The arrays belong to the solver: they are valid
    during the call and must not be modified, so a recorder copies what it
    keeps.
    """

    def record(self, t: float, v: np.ndarray, u: np.ndarray, y: np.ndarray,
               g_matrix: np.ndarray, c_matrix: np.ndarray) -> None: ...


@dataclass(frozen=True)
class TransientOptions:
    """Time span, step and integration method of a transient analysis.

    Every run starts at ``t = 0``.  The step controller's other settings are
    the constants of this module; the Newton and DC ones are those of
    :mod:`repro.circuit.newton` and :mod:`repro.circuit.dc`.
    """

    t_stop: float = 1e-9
    dt: float = 1e-12
    method: str = "trapezoidal"          # or "backward_euler"
    #: Matrix assembly backend: "auto" (compiled engine, sparse CSC storage
    #: above the size threshold), "dense", "sparse" or "legacy" (the original
    #: per-device dense stamping path, kept as reference and benchmark
    #: baseline).
    assembly: str = "auto"
    #: LTE-controlled adaptive time stepping: estimate the local truncation
    #: error of each step from the predictor–corrector difference and grow /
    #: shrink ``dt`` to hold a weighted error norm at 1.  ``dt`` becomes the
    #: *initial* step; the controller moves it within
    #: ``[dt * MIN_DT_FACTOR, dt * max_dt_factor]`` and lands exactly on
    #: every stimulus corner — pulse edges, PWL knots, bit-pattern
    #: transition starts/ends, as registered by :meth:`Waveform.breakpoints
    #: <repro.circuit.waveforms.Waveform.breakpoints>` — so no accepted step
    #: straddles one.
    adaptive: bool = False
    #: Relative weight of the LTE norm (see :data:`LTE_ABS_TOL`).
    lte_rel_tol: float = 1e-3
    #: Largest adaptive step as a multiple of the nominal ``dt``.  Keep this
    #: below the fastest feature of the stimulus: a step that clears an
    #: entire input transition lands on a smooth solution and leaves the LTE
    #: estimate nothing to reject.
    max_dt_factor: float = 50.0

    def validate(self) -> None:
        if self.t_stop <= 0:
            raise ValueError("t_stop must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.method not in ("trapezoidal", "backward_euler"):
            raise ValueError(f"unknown integration method {self.method!r}")
        if self.lte_rel_tol < 0:
            raise ValueError("lte_rel_tol must be non-negative")
        if self.adaptive and self.max_dt_factor < 1.0:
            raise ValueError("max_dt_factor must be at least 1")


@dataclass
class TransientResult:
    """Result of a transient analysis."""

    times: np.ndarray                    # shape (K,)
    states: np.ndarray                   # shape (K, n_unknowns)
    outputs: np.ndarray                  # shape (K, n_outputs)
    inputs: np.ndarray                   # shape (K, n_inputs)
    newton_iterations: int
    rejected_steps: int
    #: Seconds the run took; a family's time is split equally over its
    #: rows, so the rows' times sum to the time actually spent.
    wall_time: float
    method: str
    #: Steps rejected by the LTE controller (subset of ``rejected_steps``;
    #: the rest are Newton convergence failures).
    lte_rejections: int = 0
    #: :class:`~repro.circuit.linalg.FactorizationCache` counters captured at
    #: the end of the run (all zero under the legacy assembly, which solves
    #: without a cache) — the raw material of the
    #: :class:`~repro.telemetry.events.EngineProfile` event.
    cache_factorizations: int = 0
    cache_reuses: int = 0
    cache_solves: int = 0

    @property
    def n_points(self) -> int:
        return int(self.times.size)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of linear solves answered from cached LU factors."""
        return (self.cache_reuses / self.cache_solves
                if self.cache_solves else 0.0)

    @property
    def accepted_steps(self) -> int:
        """Number of accepted integration steps (time points minus the IC)."""
        return int(self.times.size) - 1

    def output(self, index: int = 0) -> np.ndarray:
        """Waveform of one output as a 1-D array."""
        return self.outputs[:, index]

    def input(self, index: int = 0) -> np.ndarray:
        """Waveform of one input as a 1-D array."""
        return self.inputs[:, index]

    def node_voltage(self, system: MNASystem, node: str) -> np.ndarray:
        """Waveform of a node voltage by node name."""
        idx = system.node_index[node]
        if idx < 0:
            return np.zeros_like(self.times)
        return self.states[:, idx]

    def resample(self, times: np.ndarray) -> np.ndarray:
        """Linear interpolation of the first output onto a new time grid.

        Contract: :attr:`times` is strictly increasing but **not necessarily
        uniform** — adaptive (LTE-controlled) runs place points densely on
        fast transitions and sparsely on flat stretches.  Consumers that need
        a uniform grid (the compiled runtime's fixed-``dt`` kernel,
        :func:`repro.runtime.validate.validate_model`'s RMSE comparison)
        must resample through this method (or ``np.interp``) rather than
        assume ``times[1] - times[0]`` spacing.  Query points outside the
        simulated span clamp to the first/last output sample.
        """
        return np.interp(times, self.times, self.outputs[:, 0])


class _Row:
    """One system of a transient run: its solver cache, counters and records."""

    __slots__ = ("system", "callback", "cache", "times", "states", "inputs",
                 "outputs", "newton", "rejected", "lte_rejected", "error")

    def __init__(self, system: MNASystem, callback: SnapshotCallback | None,
                 cache: FactorizationCache | None) -> None:
        self.system = system
        self.callback = callback
        self.cache = cache
        self.times: list[float] = []
        self.states: list[np.ndarray] = []
        self.inputs: list[np.ndarray] = []
        self.outputs: list[np.ndarray] = []
        self.newton = 0
        self.rejected = 0
        self.lte_rejected = 0
        #: The exception that ended this row's run, if any.
        self.error: Exception | None = None

    def result(self, wall_time: float, method: str) -> TransientResult:
        cache = self.cache
        return TransientResult(
            times=np.array(self.times),
            states=np.array(self.states),
            outputs=np.array(self.outputs),
            inputs=np.array(self.inputs),
            newton_iterations=self.newton,
            rejected_steps=self.rejected,
            wall_time=wall_time,
            method=method,
            lte_rejections=self.lte_rejected,
            cache_factorizations=cache.factorizations if cache else 0,
            cache_reuses=cache.reuses if cache else 0,
            cache_solves=cache.solves if cache else 0,
        )


@dataclass
class _Group:
    """Rows that step together: one time, step size and integration method.

    ``v``, ``q`` and ``qdot`` stack the rows' accepted solutions, charges and
    charge derivatives; ``v_prev`` the solutions one step earlier (``None``
    before the first step).
    """

    rows: list
    v: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    v_prev: np.ndarray | None
    t: float
    dt: float
    dt_prev: float
    trap_next: bool

    def take(self, keep: list[int]) -> None:
        """Keep only the rows at positions ``keep``."""
        self.rows = [self.rows[k] for k in keep]
        self.v, self.q, self.qdot = self.v[keep], self.q[keep], self.qdot[keep]
        if self.v_prev is not None:
            self.v_prev = self.v_prev[keep]


def transient_analysis(system: MNASystem | Sequence[MNASystem],
                       options: TransientOptions,
                       snapshot_callback=None, initial_state=None,
                       ) -> TransientResult | list[TransientResult | Exception]:
    """Run a nonlinear transient simulation.

    Parameters
    ----------
    system:
        Built MNA system, or a sequence of S systems of one circuit that
        differ only in their stimuli (a *family*, see below).
    options:
        Time span, step, integration method and assembly.
    snapshot_callback:
        Optional recorder receiving ``(t, v, u, y, G, C)`` at accepted steps
        (for a family, a sequence of one recorder or ``None`` per system).
        The arrays it receives are the solver's, not copies: valid during
        the call and not to be modified, so a recorder copies what it keeps
        (:class:`~repro.tft.SnapshotTrajectory` makes that one copy).
    initial_state:
        Optional starting solution; when omitted the DC operating point at
        ``t = 0`` is used (the standard SPICE behaviour).  For a family, a
        sequence of one state or ``None`` per system; rows whose excitations
        at ``t = 0`` are byte-equal solve their DC point once.

    A family runs on a shared fixed time grid through one Newton loop over
    the stacked states (:func:`~repro.circuit.newton.newton_solve`), with
    one :class:`FactorizationCache` per system.  Its systems must compile to
    equal engines (:meth:`CompiledMNA.matches
    <repro.circuit.assembly.CompiledMNA.matches>`, checked, not assumed);
    adaptive stepping and the legacy assembly take one system at a time
    (``ValueError``).  Every system keeps its own arithmetic, so each row is
    byte-equal to its own run: a row that does not converge at the shared
    step leaves the family and carries on alone with the halved step its
    own run would take.  The call returns a list with one entry per system,
    its :class:`TransientResult` or the exception that ended its run (the
    one its own run raises); the wall time is split equally over the rows.
    """
    options.validate()
    wall_start = _time.perf_counter()
    family = not isinstance(system, MNASystem)
    systems = list(system) if family else [system]
    if family:
        callbacks = ([None] * len(systems) if snapshot_callback is None
                     else list(snapshot_callback))
        starts = ([None] * len(systems) if initial_state is None
                  else list(initial_state))
    else:
        callbacks, starts = [snapshot_callback], [initial_state]
    if not systems or len(callbacks) != len(systems) or len(starts) != len(systems):
        raise ValueError("a transient family needs one snapshot callback and "
                         "one initial state (or None) per system")

    legacy = options.assembly == "legacy"
    if len(systems) > 1 and (options.adaptive or legacy):
        raise ValueError("a family of systems runs fixed-step on a compiled "
                         "assembly; adaptive and legacy runs take one system "
                         "at a time")
    engine = select_engine(systems[0], options.assembly)
    for other in systems[1:]:
        # A later row's engine only has to match the checked first engine
        # byte for byte, so it skips the check against the legacy path and
        # is not cached on its system.
        twin = other._compiled.get(engine.is_sparse)
        if twin is None:
            twin = CompiledMNA(other, sparse=engine.is_sparse, verify=False)
        if not engine.matches(twin):
            raise ValueError(
                f"{other.circuit.name!r} does not compile to the same engine as "
                f"{systems[0].circuit.name!r}; a family is one circuit")

    # DC solutions by the bytes of their t = 0 excitation: rows of matching
    # compiled engines solve equal excitations to equal bits, so a later row
    # reuses an earlier row's DC point.  The legacy path evaluates each row's
    # own devices, which no engine comparison covers.
    dc_points: dict[bytes, np.ndarray] | None = None if legacy else {}
    rows, starting = [], []
    for row_system, callback, start in zip(systems, callbacks, starts):
        row = _Row(row_system, callback, None if legacy else FactorizationCache())
        rows.append(row)
        try:
            starting.append((row, _start_row(row, engine, start, dc_points)))
        except Exception as exc:  # noqa: BLE001 - the row's own run raises it
            row.error = exc

    pending = []
    if starting:
        v, q, qdot = (np.stack(parts) for parts in zip(*(s for _, s in starting)))
        pending.append(_Group([row for row, _ in starting], v, q, qdot, None,
                              0.0, options.dt, options.dt,
                              options.method == "trapezoidal"))
    while pending:
        pending.extend(_integrate(pending.pop(0), engine, options))

    wall_time = (_time.perf_counter() - wall_start) / len(rows)
    outcomes = [row.error if row.error is not None
                else row.result(wall_time, options.method) for row in rows]
    if family:
        return outcomes
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return outcomes[0]


def _start_row(row: _Row, engine, initial_state,
               dc_points: dict[bytes, np.ndarray] | None,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial point of one row: records it and returns ``(v, q, qdot)``.

    Without an ``initial_state`` the row starts at its DC operating point,
    taken from ``dc_points`` (keyed by the bytes of the excitation at
    ``t = 0``) when an earlier row solved the same excitation; a solved
    point is added to it.  ``None`` (the legacy assembly) solves every
    row's own point on the legacy path.
    """
    system = row.system
    excitation = system.excitation(0.0)
    if initial_state is None:
        key = excitation.tobytes()
        v = None if dc_points is None else dc_points.get(key)
        if v is None:
            v = dc_operating_point(
                system, assembly="legacy" if dc_points is None else "auto").solution
            if dc_points is not None:
                dc_points[key] = v
        v = v.copy()
    else:
        v = np.array(initial_state, dtype=float, copy=True)
    row.times.append(0.0)
    row.states.append(v.copy())
    u0 = system.input_vector(0.0)
    row.inputs.append(u0)
    row.outputs.append(system.output(v))

    i_vec, g_op = engine.eval_static(v)
    q_vec, c_op = engine.eval_dynamic(v)
    # dq/dt at the initial point; at a true DC point this is ~0.
    qdot = excitation - i_vec
    if row.callback is not None:
        row.callback.record(0.0, v, u0, system.output(v), engine.materialize(g_op),
                            engine.materialize(c_op))
    return v, q_vec, qdot


def _integrate(group: _Group, engine, options: TransientOptions) -> list[_Group]:
    """Step ``group`` to ``t_stop``; returns the groups split off on the way.

    Rows leave the group when their run ends in an error (kept on the row)
    or when they fail to converge at the shared step: those continue as a
    new group at the halved step, exactly as their own runs would.
    """
    split: list[_Group] = []
    rows = group.rows
    n_nodes = engine.n_nodes
    use_trap = options.method == "trapezoidal"
    # The legacy reference path starts every Newton solve from the last
    # accepted solution, never from the extrapolated guess.
    use_predictor = options.assembly != "legacy"

    t, dt, dt_prev = group.t, group.dt, group.dt_prev
    trap_next = group.trap_next
    t_stop = options.t_stop
    # Relative end-of-interval guard: an absolute epsilon is meaningless at
    # large t_stop, and float accumulation of t can otherwise leave a sliver
    # that becomes a near-zero step with a catastrophically scaled 2/dt.
    end_eps = 1e-12 * t_stop
    min_dt = options.dt * MIN_DT_FACTOR
    adaptive = options.adaptive
    max_dt = options.dt * options.max_dt_factor if adaptive else options.dt
    stimulus_corners: np.ndarray | None = None
    if adaptive:
        # Breakpoint cap: no accepted step straddles a stimulus corner.
        # Adaptive runs are single-row groups (families are refused).
        corner_times = rows[0].system.waveform_breakpoints(0.0, t_stop)
        # Corners within min_dt of t_stop belong to the final snap: landing
        # on one would leave a sub-min_dt sliver to t_stop whose 2/dt scaling
        # the snap exists to prevent.
        corner_times = corner_times[corner_times < t_stop - max(end_eps, min_dt)]
        if corner_times.size:
            stimulus_corners = corner_times
    #: ``trap_next`` is the integration method of the *next* step.  The
    #: adaptive controller retries rejected steps with backward Euler: the
    #: trapezoidal qdot recursion ``(2/dt)(q - q_prev) - qdot_prev``
    #: propagates perturbations with alternating sign and no decay (the
    #: classic trap "ringing"), so once an edge seeds an oscillation,
    #: shrinking dt can never bring the LTE down.  One L-stable BE step does
    #: not consume ``qdot_prev`` at all and resets the recursion; the nominal
    #: method resumes on the following step.

    while group.rows and t < t_stop - end_eps:
        rows = group.rows
        dt = min(dt, max_dt)
        dt_preferred = dt
        remaining = t_stop - t
        # Snap the final step exactly onto t_stop: take the whole remainder
        # whenever the nominal step would overshoot it or leave a sub-percent
        # sliver behind (whose near-zero dt would wreck the 2/dt scaling).
        snap_to_stop = remaining <= dt * 1.01
        if snap_to_stop:
            dt = remaining
        # Breakpoint cap: land exactly on the next stimulus corner instead of
        # straddling it (same sliver guard as the t_stop snap).  Corners lie
        # strictly inside the interval, so they take precedence over the snap.
        # Corners closer than min_dt ahead are ignored: they cannot be
        # resolved at the step floor, and clamping to them would build a
        # catastrophically scaled 2/dt (degenerate corner pairs, e.g. a
        # zero-rise pulse edge, land here).
        corner_target: float | None = None
        if stimulus_corners is not None:
            j = int(np.searchsorted(stimulus_corners, t + max(end_eps, min_dt),
                                    side="right"))
            if j < stimulus_corners.size:
                corner = float(stimulus_corners[j])
                if corner - t <= dt * 1.01:
                    dt = corner - t
                    corner_target = corner
                    snap_to_stop = False
        # t + (t_stop - t) is not guaranteed to round to t_stop exactly.
        if snap_to_stop:
            t_new = t_stop
        elif corner_target is not None:
            t_new = corner_target
        else:
            t_new = t + dt
        trap_step = trap_next

        excitation = np.empty_like(group.v)
        for k, row in enumerate(rows):
            try:
                excitation[k] = row.system.excitation(t_new)
            except Exception as exc:  # noqa: BLE001 - the row's own run raises it
                row.error = exc
        keep = [k for k, row in enumerate(rows) if row.error is None]
        if len(keep) < len(rows):
            group.take(keep)
            excitation = excitation[keep]
            rows = group.rows
            if not rows:
                break
        v, q_prev, qdot_prev = group.v, group.q, group.qdot

        # Polynomial predictor: extrapolate the last two accepted solutions.
        # Computed even when not used as the Newton guess — the LTE estimate
        # of the adaptive controller is the predictor-corrector difference.
        predicted: np.ndarray | None = None
        predicts = [False] * len(rows)
        if group.v_prev is not None and dt_prev > 0.0:
            predicted = v + (v - group.v_prev) * (dt / dt_prev)
            predicts = np.isfinite(predicted).all(axis=-1).tolist()
        from_v = [not (use_predictor and p) for p in predicts]
        if all(from_v):
            guess = v
        elif not any(from_v):
            guess = predicted
        else:
            guess = np.where(np.array(from_v)[:, None], v, predicted)

        # Each row's latest evaluation: ((q, G, C), index into the stack).
        last: list = [None] * len(rows)

        def residual_and_jacobian(v_trial: np.ndarray, at):
            """Residual and Jacobian of the rows at ``at`` (a list; an int for 1-D)."""
            i_trial, g_trial = engine.eval_static(v_trial)
            q_trial, c_trial = engine.eval_dynamic(v_trial)
            # ``at`` ascends, so a run of consecutive rows (all of them, say)
            # is a slice and needs no gather.
            sel = (slice(at[0], at[-1] + 1)
                   if v_trial.ndim > 1 and at[-1] - at[0] == len(at) - 1 else at)
            if trap_step:
                residual = ((2.0 / dt) * (q_trial - q_prev[sel]) - qdot_prev[sel]
                            + i_trial - excitation[sel])
                jac = engine.combine(g_trial, c_trial, 2.0 / dt)
            else:
                residual = (q_trial - q_prev[sel]) / dt + i_trial - excitation[sel]
                jac = engine.combine(g_trial, c_trial, 1.0 / dt)
            residual[..., :n_nodes] += GMIN * v_trial[..., :n_nodes]
            engine.add_diag(jac, GMIN, n_nodes)
            evaluated = (q_trial, g_trial, c_trial)
            if v_trial.ndim == 1:
                last[at] = (evaluated, ())
            else:
                for j, k in enumerate(at):
                    last[k] = (evaluated, j)
            return residual, engine.materialize(jac)

        def solve(positions: list[int], start: np.ndarray) -> list[NewtonResult]:
            """Newton on the rows at ``positions``; errors land on the results."""
            if len(positions) == 1:
                k = positions[0]
                try:
                    return [newton_solve(lambda x: residual_and_jacobian(x, k),
                                         start[0], NEWTON_ITERATIONS,
                                         linear_solver=rows[k].cache)]
                except SingularMatrixError as exc:
                    return [NewtonResult(start[0], False, 0, np.inf, error=exc)]
            return newton_solve(
                lambda x, sub: residual_and_jacobian(x, [positions[j] for j in sub]),
                start, NEWTON_ITERATIONS, linear_solver=[rows[k].cache for k in positions])

        results = solve(list(range(len(rows))), guess)
        retry = []
        for k, result in enumerate(results):
            if result.error is None:
                rows[k].newton += result.iterations
            if (result.error is not None or not result.converged) and not from_v[k]:
                # The extrapolated guess can overshoot strong nonlinearities
                # (or into a singular region); retry once from the last
                # accepted solution before shrinking dt.
                retry.append(k)
            elif result.error is not None:
                # From the accepted solution a singular Jacobian is fatal.
                rows[k].error = result.error
        if retry:
            for k, result in zip(retry, solve(retry, v[retry])):
                results[k] = result
                if result.error is not None:
                    rows[k].error = result.error
                else:
                    rows[k].newton += result.iterations

        failed = [k for k, row in enumerate(rows)
                  if row.error is None and not results[k].converged]
        dt_retry = dt * 0.5
        for k in failed:
            row = rows[k]
            row.rejected += 1
            if dt_retry < min_dt:
                row.error = ConvergenceError(
                    f"transient analysis of {row.system.circuit.name!r} failed at "
                    f"t={t_new:.3e}s even with dt={dt_retry:.3e}s",
                    iterations=row.newton, residual=results[k].residual_norm)
        failed = [k for k in failed if rows[k].error is None]
        accepted = [k for k, row in enumerate(rows)
                    if row.error is None and results[k].converged]
        if failed and accepted:
            # These rows leave the family and retry the step alone, as in
            # their own runs.
            split.append(_Group(
                [rows[k] for k in failed], v[failed], q_prev[failed],
                qdot_prev[failed],
                None if group.v_prev is None else group.v_prev[failed],
                t, dt_retry, dt_prev, False if adaptive else trap_next))
        if not accepted:
            group.take(failed)
            dt = dt_retry
            if adaptive:
                trap_next = False      # L-stable retry, see trap_next above
            continue
        if len(accepted) < len(rows):
            group.take(accepted)
            rows = group.rows
            results = [results[k] for k in accepted]
            last = [last[k] for k in accepted]
            q_prev, qdot_prev = q_prev[accepted], qdot_prev[accepted]

        # LTE estimate from the predictor-corrector difference: the linear
        # extrapolation and the implicit corrector bracket the true solution,
        # so their (scaled) difference tracks the step's truncation error.
        # Optimal-step exponent 1/(p+1) of this step's integration order p.
        # Adaptive runs are single-row groups.
        lte_exponent = 1.0 / 3.0 if trap_step else 0.5
        lte_err: float | None = None
        if adaptive and predicts[0]:
            v_new = results[0].solution
            diff = v_new - predicted[0]
            if trap_step:
                # Second-order corrector vs first-order predictor: the
                # classical Milne-type estimate with non-uniform step weights.
                est = diff * (dt / (3.0 * (dt + dt_prev)))
            else:
                est = diff * (dt / (dt + dt_prev))
            weight = LTE_ABS_TOL + options.lte_rel_tol * np.maximum(
                np.abs(v_new), np.abs(v[0]))
            with np.errstate(divide="ignore", invalid="ignore"):
                lte_err = float(np.sqrt(np.mean(np.square(est / weight))))
            if not np.isfinite(lte_err):
                lte_err = None
            elif lte_err > 1.0:
                # Reject: shrink towards the optimal step and retry with BE.
                row = rows[0]
                row.rejected += 1
                row.lte_rejected += 1
                trap_next = False
                dt *= max(MIN_SHRINK, LTE_SAFETY * lte_err ** -lte_exponent)
                if dt < min_dt:
                    row.error = ConvergenceError(
                        f"transient analysis of {row.system.circuit.name!r} cannot "
                        f"meet the LTE tolerance at t={t_new:.3e}s even with "
                        f"dt={dt:.3e}s (error norm {lte_err:.2e})",
                        iterations=row.newton, residual=results[0].residual_norm)
                    group.take([])
                continue

        # Accept the step.
        group.v_prev = group.v
        dt_prev = dt
        group.v = v = np.array([result.solution for result in results])
        q_vec = np.array([evaluated[0][j] for evaluated, j in last])
        if trap_step:
            group.qdot = (2.0 / dt) * (q_vec - q_prev) - qdot_prev
        else:
            group.qdot = (q_vec - q_prev) / dt
        group.q = q_vec
        trap_next = use_trap           # resume the nominal method

        t = t_new
        for k, row in enumerate(rows):
            try:
                u_new = row.system.input_vector(t)
                y_new = row.system.output(v[k])
                row.times.append(t)
                row.states.append(v[k].copy())
                row.inputs.append(u_new)
                row.outputs.append(y_new)
                if row.callback is not None:
                    (_, g_op, c_op), j = last[k]
                    row.callback.record(t, v[k], u_new, y_new,
                                        engine.materialize(g_op[j]),
                                        engine.materialize(c_op[j]))
            except Exception as exc:  # noqa: BLE001 - the row's own run raises it
                row.error = exc
        keep = [k for k, row in enumerate(rows) if row.error is None]
        if len(keep) < len(rows):
            group.take(keep)
            rows = group.rows
            if not rows:
                break

        if adaptive:
            # Grow/shrink towards the step whose predicted error norm is 1,
            # damped by the safety factor and the growth/shrink clamps.
            # Bootstrap steps (no estimate yet) hold dt unchanged.
            if lte_err is not None:
                factor = (LTE_SAFETY * lte_err ** -lte_exponent
                          if lte_err > 0.0 else MAX_GROWTH)
                factor = min(MAX_GROWTH, max(MIN_SHRINK, factor))
                next_dt = dt * factor
                if corner_target is not None and factor >= 1.0:
                    # A step shortened only to land on a corner says nothing
                    # about the controller's own step; resume its preference.
                    next_dt = max(next_dt, dt_preferred)
                dt = min(max_dt, max(min_dt, next_dt))
            elif corner_target is not None:
                dt = dt_preferred
        elif dt < options.dt:
            # Fixed-step mode: recover the nominal step after halvings.
            dt = min(options.dt, dt * 2.0)

        # Rows of a group share their history length.
        if len(rows[0].times) > MAX_POINTS:
            for row in rows:
                row.error = ConvergenceError(
                    f"transient analysis exceeded MAX_POINTS={MAX_POINTS}")
            group.take([])
    return split
