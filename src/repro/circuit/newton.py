"""Damped Newton-Raphson solver shared by the DC and transient analyses.

The Jacobian handed back by the residual callback may be a dense NumPy array
or a ``scipy.sparse`` matrix; sparse Jacobians are factorised with SuperLU.
Passing a persistent :class:`repro.circuit.linalg.FactorizationCache` lets
a Jacobian equal to the last factorised one (a linear circuit's, across
iterations and time steps) reuse its LU factors; every update is still the
exact Newton step.

The same loop solves a stack of independent systems (one row each, e.g. the
time steps of several stimuli of one circuit): every decision is taken per
row and each row keeps its own cache, so a row's iterates are bitwise those
of its own 1-D solve while the residual callback evaluates all active rows
at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exceptions import SingularMatrixError
from .linalg import FactorizationCache, solve_linear

__all__ = ["NewtonResult", "newton_solve"]

#: Convergence follows the SPICE convention: the residual norm must drop
#: below ``ABS_TOL`` *and* the last update must be small relative to the
#: solution (``REL_TOL * |v| + ABS_TOL``).
ABS_TOL = 1e-9
REL_TOL = 1e-6
#: Largest per-iteration change of any unknown: a crude but effective
#: junction-voltage limiter for exponential devices.
MAX_STEP = 1.0


@dataclass
class NewtonResult:
    """Outcome of a Newton solve."""

    solution: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    #: The :class:`SingularMatrixError` that stopped a row of a stacked
    #: solve (a 1-D solve raises it instead).
    error: SingularMatrixError | None = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.converged


def _solve_step(jacobian, rhs: np.ndarray, iteration: int,
                linear_solver: FactorizationCache | None) -> np.ndarray:
    try:
        return (solve_linear(jacobian, rhs) if linear_solver is None
                else linear_solver.solve(jacobian, rhs))
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"singular Jacobian during Newton iteration {iteration}") from exc


def _max_abs(x: np.ndarray) -> list[float]:
    """Per-row infinity norms (0 for an empty row) as Python floats."""
    return np.maximum.reduce(np.abs(x), axis=-1, initial=0.0).tolist()


def newton_solve(residual_and_jacobian: Callable[..., tuple[np.ndarray, object]],
                 initial_guess: np.ndarray, max_iterations: int = 100,
                 linear_solver=None):
    """Solve ``f(v) = 0`` with a damped Newton iteration.

    Parameters
    ----------
    residual_and_jacobian:
        Callable returning ``(f(v), J(v))`` for a trial solution ``v``.  The
        Jacobian may be dense or ``scipy.sparse``.
    initial_guess:
        Starting point; not modified.  A 2-D ``(S, n)`` guess solves S
        independent systems in one loop (see below).
    max_iterations:
        Iteration budget; the transient analysis passes 50, the DC analysis
        keeps the default.
    linear_solver:
        Optional :class:`FactorizationCache` used to solve the Newton updates.

    A stacked guess runs the same iteration on every row: damping, the
    backtracking line search and the convergence test are decided per row,
    converged rows leave the active set, and each row solves its updates
    with its own cache (``linear_solver`` is then a sequence of S caches or
    ``None``), so every row makes the arithmetic and LAPACK calls of its
    1-D solve.  The callable is then called as ``f(v, rows)`` with the
    ``(A, n)`` active states and the list of their row indices, and returns
    the ``(A, n)`` residuals and a sequence of A Jacobians.  The result is a
    list of S :class:`NewtonResult`; a row whose linear solve fails stops
    there with the error on its result, where a 1-D solve raises it.
    """
    guess = np.array(initial_guess, dtype=float, copy=True)
    if guess.ndim != 1:
        solvers = (list(linear_solver) if linear_solver is not None
                   else [None] * guess.shape[0])
        return _iterate(residual_and_jacobian, guess, max_iterations, solvers)

    def one_row(v: np.ndarray, rows: list[int]):
        residual, jacobian = residual_and_jacobian(v[0])
        return residual[None], (jacobian,)

    result, = _iterate(one_row, guess[None], max_iterations, [linear_solver])
    if result.error is not None:
        raise result.error
    return result


def _iterate(evaluate, v: np.ndarray, max_iterations: int,
             solvers: list) -> list[NewtonResult]:
    """The Newton loop over the rows of ``v`` (see :func:`newton_solve`).

    Per-row scalars are Python floats, so each row's damping, line-search
    and convergence decisions are the 1-D solve's float arithmetic.  What
    does not depend on a row's decisions runs once on the stack: the
    right-hand sides, the finiteness check of the updates and the norms.
    """
    results: list = [None] * v.shape[0]
    rows = list(range(v.shape[0]))
    residual, jacobian = evaluate(v, rows)
    residual_norm = _max_abs(residual)

    for iteration in range(1, max_iterations + 1):
        rhs = -residual
        delta = np.empty_like(v)
        errors: dict[int, SingularMatrixError] = {}
        for k, row in enumerate(rows):
            try:
                delta[k] = _solve_step(jacobian[k], rhs[k], iteration, solvers[row])
            except SingularMatrixError as exc:
                errors[k] = exc
                delta[k] = 0.0
        finite = np.isfinite(delta)
        if not finite.all():
            for k in np.flatnonzero(~finite.all(axis=-1)).tolist():
                errors.setdefault(k, SingularMatrixError(
                    f"non-finite Newton update at iteration {iteration}"))
        if errors:
            for k, exc in errors.items():
                results[rows[k]] = NewtonResult(v[k], False, iteration,
                                                residual_norm[k], error=exc)
            keep = [k for k in range(len(rows)) if k not in errors]
            if not keep:
                return results
            rows = [rows[k] for k in keep]
            v, delta, residual = v[keep], delta[keep], residual[keep]
            residual_norm = [residual_norm[k] for k in keep]
            jacobian = [jacobian[k] for k in keep]

        # Damping: limit the largest per-unknown update of each row.
        for k, max_delta in enumerate(_max_abs(delta)):
            if max_delta > MAX_STEP:
                delta[k] *= MAX_STEP / max_delta
        v_new = v + delta
        residual_new, jacobian_new = evaluate(v_new, rows)
        norm_new = _max_abs(residual_new)

        # Simple line search: halve the step of every row whose residual grew
        # a lot, up to four times, before accepting.
        for _ in range(4):
            grew = [k for k, norm in enumerate(norm_new)
                    if norm > 10.0 * residual_norm[k] + ABS_TOL]
            if not grew:
                break
            delta[grew] *= 0.5
            trial = v[grew] + delta[grew]
            trial_residual, trial_jacobian = evaluate(trial, [rows[k] for k in grew])
            v_new, residual_new = v_new.copy(), residual_new.copy()
            v_new[grew] = trial
            residual_new[grew] = trial_residual
            jacobian_new = list(jacobian_new)
            for j, (k, norm) in enumerate(zip(grew, _max_abs(trial_residual))):
                norm_new[k] = norm
                jacobian_new[k] = trial_jacobian[j]

        # A row converges when its residual is small and its last update
        # small relative to its solution; the update norms are only needed
        # once some residual is.
        small = [k for k, norm in enumerate(norm_new) if norm <= ABS_TOL]
        if small:
            update_norm = _max_abs(v_new - v)
            scale = _max_abs(v_new)
        v, residual, jacobian = v_new, residual_new, jacobian_new
        residual_norm = norm_new
        converged = [k for k in small
                     if update_norm[k] <= REL_TOL * scale[k] + ABS_TOL]
        if converged:
            for k in converged:
                results[rows[k]] = NewtonResult(v[k], True, iteration,
                                                residual_norm[k])
            if len(converged) == len(rows):
                return results
            keep = [k for k in range(len(rows)) if k not in converged]
            rows = [rows[k] for k in keep]
            v, residual = v[keep], residual[keep]
            residual_norm = [residual_norm[k] for k in keep]
            jacobian = [jacobian[k] for k in keep]

    for k, row in enumerate(rows):
        results[row] = NewtonResult(v[k], False, max_iterations,
                                    residual_norm[k])
    return results
