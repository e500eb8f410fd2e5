"""Recursive Vector Fitting of state-dependent residue trajectories.

After the frequency poles ``{a_p}`` have been fixed, every frequency-pole
residue becomes a trajectory ``r_p(x^(k))`` over the sampled states.  This
module fits those trajectories — all of them sharing a *common* set of state
poles ``{b_q}`` — as partial fraction expansions in the state variable,
which is the "recursive" application of vector fitting that gives the paper
its name (Section III.B).

The state is the input, ``x = u(t)`` (the one-dimensional state estimator
of the paper's output-buffer example, and the only state the TFT dataset
holds), so the recursion is a single vector fit along the state axis: the
state poles are found by real-coefficient vector fitting on the real state
samples, and the final residues by one complex-coefficient least-squares
solve, mapped to the paper's ``j*x`` convention.  The paper's eq. (16)
generalises it to states of delayed inputs on a multi-dimensional grid, one
dimension at a time; that case is not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import FittingError
from ..vectfit import vector_fit
from ..vectfit.poles import initial_state_poles
from .residues import PartialFractionFunction

__all__ = [
    "StateFitReport",
    "fit_residue_trajectories",
]

#: State-pole search (Algorithm 1 lines 18-25): the order starts at two poles
#: and adds a conjugate pair per step, up to ``MAX_ORDER``.
START_ORDER = 2
ORDER_STEP = 2
MAX_ORDER = 20
#: Most pole-relocation steps of each state-axis vector fit.
N_ITERATIONS = 20
#: Minimum |Re(b)| of a state pole, relative to the state-axis span, so
#: that the analytic antiderivative stays well conditioned.
MIN_POLE_REAL_FRACTION = 1e-3
#: Stop increasing the order once an extra pair of poles improves the error
#: by less than this factor — trajectory data has a noise floor (hysteresis
#: of the training trajectory) below which extra poles only overfit.
STAGNATION_FACTOR = 0.85


@dataclass
class StateFitReport:
    """Diagnostics of one state-axis fit."""

    poles: np.ndarray
    orders_tried: list[int]
    errors: list[float]
    error_bound: float
    converged: bool

    @property
    def order(self) -> int:
        return int(self.poles.size)


def _off_axis_poles(poles_x: np.ndarray, span: float, min_fraction: float) -> np.ndarray:
    """Push x-domain state poles away from the real axis.

    The basis ``1/(x - a)`` is singular when ``a`` is real and inside the
    sampled interval, and its antiderivative (equivalently, the ``j*x``
    convention primitive) requires a non-zero imaginary part.  Poles closer to
    the real axis than ``min_fraction * span`` are nudged away; the residues
    are recomputed afterwards by the caller.
    """
    poles = np.array(poles_x, dtype=complex, copy=True)
    min_imag = max(min_fraction * span, 1e-30)
    small = np.abs(poles.imag) < min_imag
    if np.any(small):
        signs = np.where(poles.imag[small] >= 0.0, 1.0, -1.0)
        poles[small] = poles[small].real + 1j * signs * min_imag
    return poles


def fit_residue_trajectories(states: np.ndarray, samples: np.ndarray,
                             error_bound: float = 1e-3, variable: str = "u"
                             ) -> tuple[list[PartialFractionFunction], StateFitReport]:
    """Fit several functions of one real state variable with common poles.

    Parameters
    ----------
    states:
        State samples ``x^(k)``, shape ``(K,)``.
    samples:
        Function samples, shape ``(F, K)`` — one row per residue trajectory
        (plus rows for the instantaneous gain or the direct term if desired).
    error_bound:
        Target relative error of the pole search; the order is increased by
        :data:`ORDER_STEP` until the error drops below it.
    variable:
        Name used when printing the resulting analytical expressions.

    Returns
    -------
    (functions, report):
        One :class:`PartialFractionFunction` per row of ``samples`` (all
        sharing the same poles), plus fit diagnostics.
    """
    states = np.asarray(states, dtype=float).ravel()
    samples = np.atleast_2d(np.asarray(samples, dtype=complex))
    if samples.shape[1] != states.size:
        raise FittingError(
            f"samples have {samples.shape[1]} columns but {states.size} states given")
    if states.size < 4:
        raise FittingError("need at least four state samples to fit residue trajectories")

    span = float(states.max() - states.min()) or 1.0
    x_lo, x_hi = float(states.min()), float(states.max())

    # The pole search runs in real-coefficient mode on the real state variable:
    # poles are found as complex conjugate pairs about the state axis, which
    # is exactly the "zero-phase" pole pairing of the paper's reference [10]
    # once mapped to the j*x convention.  Complex trajectories (residues of
    # complex frequency-pole pairs) are split into real and imaginary rows;
    # per-row normalisation keeps small trajectories from being drowned out
    # by large ones in the common-pole fit.
    scales = np.sqrt(np.mean(np.abs(samples) ** 2, axis=1))
    scales = np.where(scales > 0.0, scales, 1.0)
    normalised = samples / scales[:, None]
    fit_rows = np.vstack([normalised.real, normalised.imag]).astype(complex)
    svals_x = states.astype(complex)

    orders_tried: list[int] = []
    errors: list[float] = []
    pole_sets: list[np.ndarray] = []

    max_supported = max(1, states.size // 2 - 1)
    effective_max = min(MAX_ORDER, max_supported)
    order = min(START_ORDER, effective_max)
    while True:
        initial = initial_state_poles(x_lo, x_hi, order)
        result = vector_fit(svals_x, fit_rows, initial, n_iterations=N_ITERATIONS,
                            enforce_stability=False)
        orders_tried.append(order)
        errors.append(result.relative_error)
        pole_sets.append(result.poles)
        if result.relative_error <= error_bound or order >= effective_max:
            break
        # Stagnation guard: trajectory data carries a hysteresis noise floor;
        # once extra poles stop paying for themselves they only overfit.
        if len(errors) >= 2 and errors[-1] > STAGNATION_FACTOR * min(errors[:-1]):
            break
        order = min(order + ORDER_STEP, effective_max)

    # Prefer the smallest order whose error is within 5% of the best achieved.
    best_error = min(errors)
    tolerance = max(error_bound, 1.05 * best_error)
    chosen = next(i for i, err in enumerate(errors) if err <= tolerance)
    poles_x = _off_axis_poles(pole_sets[chosen], span, MIN_POLE_REAL_FRACTION)

    # Final residue identification: one complex least-squares solve with the
    # fixed pole set, directly on the (unsplit) complex trajectories.
    basis = 1.0 / (states[None, :] - poles_x[:, None])          # (Q, K)
    lhs = np.vstack([basis, np.ones((1, states.size))]).T        # (K, Q+1)
    solution, *_ = np.linalg.lstsq(lhs, (normalised).T, rcond=None)
    coefficients_x = (solution[:-1].T) * scales[:, None]
    constants = solution[-1] * scales

    # Convert the x-domain expansion  c/(x - a)  to the paper's j*x convention
    # 1/(j*x - b) with b = j*a and coefficient j*c; conjugate pole pairs in x
    # become the +/- real-part ("zero phase") pairs of the paper.
    poles_jx = 1j * poles_x
    coefficients_jx = 1j * coefficients_x

    functions = [
        PartialFractionFunction(poles=poles_jx, coefficients=coefficients_jx[i],
                                constant=constants[i], variable=variable)
        for i in range(samples.shape[0])
    ]
    report = StateFitReport(
        poles=poles_jx,
        orders_tried=orders_tried,
        errors=errors,
        error_bound=error_bound,
        converged=bool(min(errors) <= error_bound),
    )
    return functions, report

