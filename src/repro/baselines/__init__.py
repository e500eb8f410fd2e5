"""Baseline residue-regression methods the paper compares against."""

from .caffeine import (
    BasisTerm,
    CaffeineExtractionResult,
    CaffeineFunction,
    CaffeineIntegral,
    default_basis_library,
    extract_caffeine_model,
    fit_caffeine,
)

__all__ = [
    "BasisTerm",
    "CaffeineFunction",
    "CaffeineIntegral",
    "default_basis_library",
    "fit_caffeine",
    "extract_caffeine_model",
    "CaffeineExtractionResult",
]
