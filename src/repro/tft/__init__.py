"""Transfer Function Trajectories: Jacobian snapshots to state/frequency data."""

from .hyperplane import TFTDataset
from .snapshots import JacobianSnapshot, SnapshotTrajectory
from .trajectory import default_frequency_grid, extract_tft, snapshot_transfer_function

__all__ = [
    "JacobianSnapshot",
    "SnapshotTrajectory",
    "TFTDataset",
    "extract_tft",
    "snapshot_transfer_function",
    "default_frequency_grid",
]
