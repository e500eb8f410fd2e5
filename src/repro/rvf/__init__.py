"""Recursive Vector Fitting and Hammerstein model synthesis (core contribution)."""

from .export import model_equations, to_verilog_a
from .extract import RVFExtractionResult, RVFOptions, extract_rvf_model
from .hammerstein import HammersteinBranch, HammersteinModel, ModelMetadata
from .integration import basis_primitive
from .recursive import StateFitReport, fit_residue_trajectories
from .residues import IntegratedPartialFraction, PartialFractionFunction
from .timedomain import ModelSimulationResult, simulate_hammerstein

__all__ = [
    "extract_rvf_model",
    "RVFOptions",
    "RVFExtractionResult",
    "HammersteinModel",
    "HammersteinBranch",
    "ModelMetadata",
    "PartialFractionFunction",
    "IntegratedPartialFraction",
    "StateFitReport",
    "fit_residue_trajectories",
    "basis_primitive",
    "simulate_hammerstein",
    "ModelSimulationResult",
    "model_equations",
    "to_verilog_a",
]
