"""Damped Newton-Raphson solver shared by the DC and transient analyses.

The Jacobian handed back by the residual callback may be a dense NumPy array
or a ``scipy.sparse`` matrix; sparse Jacobians are factorised with SuperLU.
Passing a persistent :class:`repro.circuit.linalg.FactorizationCache` enables
the modified-Newton bypass: LU factors are re-used across iterations (and, in
the transient analysis, across time steps) while the Jacobian drifts less
than the cache's tolerance, with an automatic refactor when the residual
stops contracting.

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
import scipy.sparse as _sp

from ..exceptions import SingularMatrixError
from .linalg import FactorizationCache, solve_linear

__all__ = ["NewtonOptions", "NewtonResult", "newton_solve"]


@dataclass
class NewtonOptions:
    """Tuning knobs of the Newton iteration.

    ``abs_tol``/``rel_tol`` follow the SPICE convention: convergence requires
    the residual norm to drop below ``abs_tol`` *and* the last update to be
    small relative to the solution (``rel_tol * |v| + abs_tol``).
    ``max_step`` limits the per-iteration change of any unknown, which acts as
    a crude but effective junction-voltage limiter for exponential devices.
    """

    max_iterations: int = 100
    abs_tol: float = 1e-9
    rel_tol: float = 1e-6
    max_step: float = 1.0
    #: Dense LU pivots at or below this magnitude raise SingularMatrixError
    #: (0 keeps NumPy's exact-singularity detection only).  Forwarded to the
    #: FactorizationCache the analyses build around this iteration.
    singular_threshold: float = 0.0
    #: Residual contraction factor above which a cached (stale) LU factor is
    #: invalidated so the next iteration refactors the fresh Jacobian.
    stale_contraction_limit: float = 0.5


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
                linear_solver: FactorizationCache | None,
                singular_threshold: float) -> np.ndarray:
    try:
        if linear_solver is not None:
            delta = linear_solver.solve(jacobian, rhs)
        elif _sp.issparse(jacobian):
            delta = solve_linear(jacobian, rhs)
        elif singular_threshold > 0.0:
            cache = FactorizationCache(singular_threshold=singular_threshold)
            delta = cache.solve(jacobian, rhs)
        else:
            delta = np.linalg.solve(jacobian, rhs)
    except (np.linalg.LinAlgError, SingularMatrixError) as exc:
        raise SingularMatrixError(
            f"singular Jacobian during Newton iteration {iteration}") from exc
    if not np.isfinite(delta).all():
        raise SingularMatrixError(
            f"non-finite Newton update at iteration {iteration}")
    return delta


def _max_abs(x: np.ndarray) -> list[float]:
    """Per-row infinity norms (0 for an empty row) as Python floats."""
    return np.maximum.reduce(np.abs(x), axis=-1, initial=0.0).tolist()


def newton_solve(residual_and_jacobian: Callable[..., tuple[np.ndarray, object]],
                 initial_guess: np.ndarray,
                 options: NewtonOptions | None = None,
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
    options:
        :class:`NewtonOptions`; defaults are suitable for the circuits in this
        repository.
    linear_solver:
        Optional :class:`FactorizationCache` used to solve the Newton updates.
        A cache with a non-zero reuse tolerance turns the iteration into a
        modified Newton method that skips refactorisation while the Jacobian
        barely changes; convergence is still judged on the exact residual.

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
    opts = options or NewtonOptions()
    guess = np.array(initial_guess, dtype=float, copy=True)
    if guess.ndim != 1:
        solvers = (list(linear_solver) if linear_solver is not None
                   else [None] * guess.shape[0])
        return _iterate(residual_and_jacobian, guess, opts, solvers)

    def one_row(v: np.ndarray, rows: list[int]):
        residual, jacobian = residual_and_jacobian(v[0])
        return residual[None], (jacobian,)

    result, = _iterate(one_row, guess[None], opts, [linear_solver])
    if result.error is not None:
        raise result.error
    return result


def _iterate(evaluate, v: np.ndarray, opts: NewtonOptions,
             solvers: list) -> list[NewtonResult]:
    """The Newton loop over the rows of ``v`` (see :func:`newton_solve`).

    Per-row scalars are Python floats, so each row's damping, line-search
    and convergence decisions are the 1-D solve's float arithmetic.
    """
    results: list = [None] * v.shape[0]
    rows = list(range(v.shape[0]))
    residual, jacobian = evaluate(v, rows)
    residual_norm = _max_abs(residual)

    for iteration in range(1, opts.max_iterations + 1):
        delta = np.empty_like(v)
        keep = []
        for k, row in enumerate(rows):
            try:
                delta[k] = _solve_step(jacobian[k], -residual[k], iteration,
                                       solvers[row], opts.singular_threshold)
                keep.append(k)
            except SingularMatrixError as exc:
                results[row] = NewtonResult(v[k], False, iteration,
                                            residual_norm[k], error=exc)
        if len(keep) < len(rows):
            if not keep:
                return results
            rows = [rows[k] for k in keep]
            v, delta, residual = v[keep], delta[keep], residual[keep]
            residual_norm = [residual_norm[k] for k in keep]
            jacobian = [jacobian[k] for k in keep]

        # Damping: limit the largest per-unknown update of each row.
        for k, max_delta in enumerate(_max_abs(delta)):
            if max_delta > opts.max_step:
                delta[k] *= opts.max_step / max_delta
        v_new = v + delta
        residual_new, jacobian_new = evaluate(v_new, rows)
        norm_new = _max_abs(residual_new)

        # Simple line search: halve the step of every row whose residual grew
        # a lot, up to four times, before accepting.
        for _ in range(4):
            grew = [k for k, norm in enumerate(norm_new)
                    if norm > 10.0 * residual_norm[k] + opts.abs_tol]
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

        # Stale factors that no longer contract the residual are evicted so
        # the next solve refactors the up-to-date Jacobian.
        for k, norm in enumerate(norm_new):
            cache = solvers[rows[k]]
            if (cache is not None and cache.reused_last
                    and norm > opts.stale_contraction_limit * residual_norm[k]
                    and norm > opts.abs_tol):
                cache.invalidate()

        update_norm = _max_abs(v_new - v)
        v, residual, jacobian = v_new, residual_new, jacobian_new
        residual_norm = norm_new

        converged = [
            k for k, scale in enumerate(_max_abs(v))
            if (update_norm[k] <= opts.rel_tol * scale + opts.abs_tol
                and residual_norm[k] <= opts.abs_tol)]
        if converged:
            for k in converged:
                results[rows[k]] = NewtonResult(v[k], True, iteration,
                                                residual_norm[k])
            keep = [k for k in range(len(rows)) if k not in converged]
            if not keep:
                return results
            rows = [rows[k] for k in keep]
            v, residual = v[keep], residual[keep]
            residual_norm = [residual_norm[k] for k in keep]
            jacobian = [jacobian[k] for k in keep]

    for k, row in enumerate(rows):
        results[row] = NewtonResult(v[k], False, opts.max_iterations,
                                    residual_norm[k])
    return results
