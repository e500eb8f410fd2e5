"""Error metrics and report tables."""

from .errors import (
    BatchErrorReport,
    SurfaceErrorReport,
    batched_waveform_errors,
    compare_surfaces,
    db,
    gain_error_db,
    phase_error_deg,
    surface_rmse_db,
    time_domain_rmse,
)
from .report import ComparisonTable, ModelComparisonRow, ascii_table

__all__ = [
    "db",
    "gain_error_db",
    "phase_error_deg",
    "surface_rmse_db",
    "time_domain_rmse",
    "BatchErrorReport",
    "batched_waveform_errors",
    "compare_surfaces",
    "SurfaceErrorReport",
    "ComparisonTable",
    "ModelComparisonRow",
    "ascii_table",
]
