"""(Relaxed) vector fitting of frequency responses and residue trajectories."""

from .basis import basis_matrix, coefficients_to_residues, residues_to_coefficients
from .orders import AutoFitReport, fit_auto_order
from .poles import (
    flip_unstable,
    initial_complex_poles,
    initial_state_poles,
    sort_poles,
    split_real_complex,
)
from .vectorfit import VectorFitResult, evaluate_model, vector_fit

__all__ = [
    "vector_fit",
    "VectorFitResult",
    "evaluate_model",
    "fit_auto_order",
    "AutoFitReport",
    "initial_complex_poles",
    "initial_state_poles",
    "flip_unstable",
    "sort_poles",
    "split_real_complex",
    "basis_matrix",
    "coefficients_to_residues",
    "residues_to_coefficients",
]
