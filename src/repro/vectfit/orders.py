"""Automatic model-order selection for vector fitting.

Algorithm 1 of the paper increments the number of poles by two until the fit
error drops below the user-supplied bound ``epsilon``; this module implements
that loop for the frequency axis (the RVF flow's first stage and the CAFFEINE
baseline's frequency stage).  The state-axis loop of the recursive stage is
:func:`repro.rvf.recursive.fit_residue_trajectories`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import FittingError
from .vectorfit import VectorFitResult, vector_fit

__all__ = ["AutoFitReport", "fit_auto_order"]

#: The search starts at two poles and adds a conjugate pair per step.
START_ORDER = 2
ORDER_STEP = 2
#: The largest number of poles tried.
MAX_ORDER = 24
#: Stop enlarging the model once an order increment fails to improve the
#: error below this factor times the best error so far (data measured along a
#: trajectory has an intrinsic noise floor).
STAGNATION_FACTOR = 0.75


@dataclass
class AutoFitReport:
    """History of an automatic order search."""

    result: VectorFitResult
    orders_tried: list[int]
    errors: list[float]
    error_bound: float
    converged: bool

    @property
    def order(self) -> int:
        return self.result.n_poles


def fit_auto_order(svals: np.ndarray, data: np.ndarray, error_bound: float,
                   *, initial_pole_factory) -> AutoFitReport:
    """Increase the model order until the relative RMS error drops below the bound.

    The order runs from :data:`START_ORDER` in steps of :data:`ORDER_STEP` up
    to :data:`MAX_ORDER` (or what the sample count supports), and the search
    stops early once an increment stagnates (:data:`STAGNATION_FACTOR`).

    Parameters
    ----------
    svals, data:
        Same conventions as :func:`repro.vectfit.vector_fit` (``data`` is
        ``(K, L)``, possibly with ``K = 1``).
    error_bound:
        Target *relative* RMS error (the paper's epsilon).
    initial_pole_factory:
        Callable ``f(order) -> poles`` giving the starting poles of each
        order tried.
    """
    if error_bound <= 0:
        raise FittingError("error_bound must be positive")
    svals = np.asarray(svals, dtype=complex).ravel()
    data = np.atleast_2d(np.asarray(data, dtype=complex))

    orders_tried: list[int] = []
    errors: list[float] = []
    best: VectorFitResult | None = None

    # Never attempt an order the sample count cannot support.
    max_supported = max(1, svals.size - 2)
    effective_max = min(MAX_ORDER, max_supported)

    order = min(START_ORDER, effective_max)
    while True:
        result = vector_fit(svals, data, initial_pole_factory(order))
        orders_tried.append(order)
        errors.append(result.relative_error)
        if best is None or result.relative_error < best.relative_error:
            best = result
        if result.relative_error <= error_bound:
            return AutoFitReport(result, orders_tried, errors, error_bound, True)
        if order >= effective_max:
            return AutoFitReport(best, orders_tried, errors, error_bound, False)
        if len(errors) >= 2 and errors[-1] > STAGNATION_FACTOR * min(errors[:-1]):
            return AutoFitReport(best, orders_tried, errors, error_bound, False)
        order = min(order + ORDER_STEP, effective_max)
