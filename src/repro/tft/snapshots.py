"""Jacobian snapshots captured along a transient trajectory.

The first step of the paper's flow "extracts the MNA matrix from the ELDO
simulator at each time step t_k during transient simulation".  In this
reproduction the :class:`SnapshotTrajectory` object plays that role: it is the
snapshot callback handed to :func:`repro.circuit.transient.transient_analysis`
and collects, for every accepted time point,

* the linearised conductance matrix ``G(k) = di/dv |_{v(t_k)}``,
* the linearised capacitance matrix ``C(k) = dq/dv |_{v(t_k)}``,
* the input value ``u(t_k)``, the output ``y(t_k)`` and the full solution.

Together with the constant incidence matrices ``B`` and ``D`` of the circuit
this is exactly the data set ``{C(k), G(k), B, D}, u_k, y_k`` consumed by
Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.mna import MNASystem
from ..exceptions import ReproError

__all__ = ["JacobianSnapshot", "SnapshotTrajectory"]


@dataclass
class JacobianSnapshot:
    """One sample of the circuit's internal linearisation."""

    time: float
    state: np.ndarray          # full MNA solution vector v(t_k)
    inputs: np.ndarray         # u(t_k), shape (M_i,)
    outputs: np.ndarray        # y(t_k), shape (M_o,)
    conductance: np.ndarray    # G(k), shape (N, N)
    capacitance: np.ndarray    # C(k), shape (N, N)

    @property
    def order(self) -> int:
        return int(self.conductance.shape[0])


class SnapshotTrajectory:
    """Ordered collection of Jacobian snapshots along one transient run.

    Implements the transient solver's snapshot-callback protocol, so an
    instance can be passed directly as ``snapshot_callback``.
    """

    def __init__(self, system: MNASystem) -> None:
        self.system = system
        self.input_matrix = system.input_matrix.copy()
        self.output_matrix = system.output_matrix.copy()
        self.input_names = list(system.input_names)
        self.output_names = list(system.output_names)
        self.snapshots: list[JacobianSnapshot] = []

    # -------------------------------------------------------------- recording
    @staticmethod
    def _as_dense(matrix) -> np.ndarray:
        """Dense copy of a Jacobian handed in by the solver.

        The sparse-assembly transient engine delivers ``scipy.sparse`` CSC
        matrices; the TFT transform math downstream is dense, so snapshots
        are stored densified either way.  The solver's arrays are only
        lent for the call, so this is the one copy a snapshot keeps.
        """
        if hasattr(matrix, "toarray"):
            return matrix.toarray()
        return np.array(matrix, copy=True)

    def record(self, t: float, v: np.ndarray, u: np.ndarray, y: np.ndarray,
               g_matrix: np.ndarray, c_matrix: np.ndarray) -> None:
        self.snapshots.append(JacobianSnapshot(
            time=float(t),
            state=np.array(v, copy=True),
            inputs=np.atleast_1d(np.array(u, copy=True, dtype=float)),
            outputs=np.atleast_1d(np.array(y, copy=True, dtype=float)),
            conductance=self._as_dense(g_matrix),
            capacitance=self._as_dense(c_matrix),
        ))

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, index: int) -> JacobianSnapshot:
        return self.snapshots[index]

    def __iter__(self):
        return iter(self.snapshots)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @property
    def n_inputs(self) -> int:
        return self.input_matrix.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.output_matrix.shape[1]

    def inputs(self) -> np.ndarray:
        """Input samples, shape ``(K, M_i)``."""
        if not self.snapshots:
            return np.zeros((0, self.n_inputs))
        return np.array([s.inputs for s in self.snapshots])

    def outputs(self) -> np.ndarray:
        """Output samples, shape ``(K, M_o)``."""
        if not self.snapshots:
            return np.zeros((0, self.n_outputs))
        return np.array([s.outputs for s in self.snapshots])

    def input_excursion(self, input_index: int = 0) -> tuple[float, float]:
        """(min, max) of one input over the trajectory — the sampled state range."""
        if not self.snapshots:
            raise ReproError("trajectory contains no snapshots")
        u = self.inputs()[:, input_index]
        return float(u.min()), float(u.max())

    # ------------------------------------------------------------- reductions
    def subsample(self, max_snapshots: int, by: str = "index") -> "SnapshotTrajectory":
        """Uniformly thinned copy with at most ``max_snapshots`` snapshots.

        The paper uses "about 100 TFT samples"; a transient run usually
        produces more accepted steps than that, so the trajectory is thinned
        before the (dense-solve heavy) TFT transform.

        ``by`` selects the thinning axis: ``"index"`` keeps every k-th
        snapshot, which is uniform in *time* only on a fixed-``dt`` grid;
        ``"time"`` picks the snapshot nearest each of ``max_snapshots``
        uniformly spaced time targets.  Adaptive (LTE-controlled) transients
        cluster their accepted steps on fast transitions, so index thinning
        would oversample the edges and starve the flat stretches — sweeps
        over adaptive runs should thin ``by="time"``.
        """
        if max_snapshots < 2:
            raise ReproError("subsample needs max_snapshots >= 2")
        if by not in ("index", "time"):
            raise ReproError(f"unknown subsample axis {by!r}; use 'index' or 'time'")
        thinned = SnapshotTrajectory(self.system)
        if len(self.snapshots) <= max_snapshots:
            thinned.snapshots = list(self.snapshots)
            return thinned
        if by == "time":
            times = self.times
            targets = np.linspace(times[0], times[-1], max_snapshots)
            right = np.clip(np.searchsorted(times, targets), 1, times.size - 1)
            nearest = np.where(targets - times[right - 1] <= times[right] - targets,
                               right - 1, right)
            indices = np.unique(nearest)
        else:
            indices = np.unique(
                np.linspace(0, len(self.snapshots) - 1, max_snapshots).astype(int))
        thinned.snapshots = [self.snapshots[i] for i in indices]
        return thinned

    def describe(self) -> str:
        if not self.snapshots:
            return "empty snapshot trajectory"
        lo, hi = self.input_excursion()
        return (f"{len(self.snapshots)} Jacobian snapshots over "
                f"t = [{self.times[0]:.3e}, {self.times[-1]:.3e}] s, "
                f"input excursion [{lo:.3f}, {hi:.3f}]")
