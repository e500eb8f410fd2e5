"""DC operating-point analysis with gmin and source stepping continuation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConvergenceError, SingularMatrixError
from .assembly import select_engine
from .linalg import FactorizationCache
from .mna import MNASystem
from .newton import NewtonResult, newton_solve

__all__ = ["DCResult", "dc_operating_point"]

#: Conductance from every node to ground, shared by the DC and transient
#: analyses.
GMIN = 1e-12
#: gmin-stepping ladder tried when plain Newton fails (largest first).
GMIN_STEPS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-10, 1e-12)
#: Number of source-stepping ramp points tried as the last resort.
SOURCE_STEPS = 20


@dataclass
class DCResult:
    """DC operating point of a circuit."""

    solution: np.ndarray
    outputs: np.ndarray
    iterations: int
    strategy: str
    residual_norm: float

    def voltage(self, system: MNASystem, node: str) -> float:
        """Node voltage by name (ground returns 0)."""
        index = system.node_index[node]
        return 0.0 if index < 0 else float(self.solution[index])


def _solve_fixed(system: MNASystem, engine, excitation: np.ndarray, gmin: float,
                 guess: np.ndarray,
                 linear_solver: FactorizationCache | None) -> NewtonResult:
    """Newton solve of ``i(v) + gmin*v_nodes - excitation = 0``."""
    n_nodes = system.n_nodes

    def residual_and_jacobian(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        i_vec, g_op = engine.eval_static(v)
        residual = i_vec - excitation
        residual[:n_nodes] += gmin * v[:n_nodes]
        g_op = g_op.copy()
        engine.add_diag(g_op, gmin, n_nodes)
        return residual, engine.materialize(g_op)

    return newton_solve(residual_and_jacobian, guess, linear_solver=linear_solver)


def dc_operating_point(system: MNASystem, t: float = 0.0,
                       initial_guess: np.ndarray | None = None,
                       assembly: str = "auto") -> DCResult:
    """Compute the DC operating point of the circuit at time ``t``.

    The excitation is evaluated at ``t`` (normally 0), so sources described by
    waveforms contribute their value at that instant.  Three strategies are
    tried in order: plain Newton, gmin stepping and source stepping.  The
    strategy that produced the result is recorded in :attr:`DCResult.strategy`
    so tests and reports can assert on it.  ``assembly`` selects the matrix
    assembly backend as :func:`~repro.circuit.assembly.select_engine` does.
    """
    engine = select_engine(system, assembly)
    cache = FactorizationCache() if assembly != "legacy" else None
    excitation = system.excitation(t)
    guess = (np.array(initial_guess, dtype=float, copy=True)
             if initial_guess is not None else system.zero_state())

    total_iterations = 0

    # Strategy 1: plain Newton from the supplied guess.
    try:
        result = _solve_fixed(system, engine, excitation, GMIN, guess, cache)
        total_iterations += result.iterations
        if result.converged:
            return _package(system, result, total_iterations, "newton")
    except SingularMatrixError:
        pass

    # Strategy 2: gmin stepping, then a final solve at GMIN.
    stepping_guess = guess
    for gmin in GMIN_STEPS:
        try:
            result = _solve_fixed(system, engine, excitation, gmin, stepping_guess,
                                  cache)
        except SingularMatrixError:
            break
        total_iterations += result.iterations
        if not result.converged:
            break
        stepping_guess = result.solution
    else:
        result = _solve_fixed(system, engine, excitation, GMIN, stepping_guess,
                              cache)
        total_iterations += result.iterations
        if result.converged:
            return _package(system, result, total_iterations, "gmin-stepping")

    # Strategy 3: source stepping.
    stepping_guess = system.zero_state()
    for k in range(1, SOURCE_STEPS + 1):
        alpha = k / SOURCE_STEPS
        try:
            result = _solve_fixed(system, engine, alpha * excitation, GMIN,
                                  stepping_guess, cache)
        except SingularMatrixError as exc:
            raise ConvergenceError(
                f"DC analysis of {system.circuit.name!r} failed: singular matrix during "
                f"source stepping at alpha={alpha:.2f}") from exc
        total_iterations += result.iterations
        if not result.converged:
            raise ConvergenceError(
                f"DC analysis of {system.circuit.name!r} failed during source stepping",
                iterations=total_iterations, residual=result.residual_norm)
        stepping_guess = result.solution
    return _package(system, result, total_iterations, "source-stepping")


def _package(system: MNASystem, result: NewtonResult, iterations: int,
             strategy: str) -> DCResult:
    return DCResult(
        solution=result.solution,
        outputs=system.output(result.solution),
        iterations=iterations,
        strategy=strategy,
        residual_norm=result.residual_norm,
    )
