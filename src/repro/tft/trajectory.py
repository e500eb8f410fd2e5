"""Transforming Jacobian snapshots into Transfer Function Trajectories.

Implements the sampling loop of Algorithm 1 (lines 3-12): for every captured
state ``k`` the state-dependent transfer function

.. math:: H^{(k)}(s_l) = D^T \\left(G^{(k)} + s_l\\,C^{(k)}\\right)^{-1} B

is evaluated on a discrete frequency grid ``{s_l}``, and the instantaneous
small-signal conductance ``H^{(k)}(0)`` is evaluated separately so the static
and dynamic parts of the response can be split downstream.

Snapshots are independent of each other, so :func:`extract_tft` solves them
in contiguous ranges on the process's usable cores
(:func:`repro.circuit.linalg.fan_out`: the CPUs of its affinity mask, at
most 8 threads, inline on one core).  Every snapshot still goes through the
same batched LAPACK call and writes only its own slice of the dataset, so
the result is byte-identical to a serial loop, and a failing snapshot
raises what the serial loop raises: the error of the lowest failing
snapshot.  The threads end with the call.
"""

from __future__ import annotations

import numpy as np

from ..circuit.ac import frequency_grid
from ..circuit.linalg import batched_transfer, fan_out
from ..exceptions import ReproError, SingularMatrixError
from .hyperplane import TFTDataset
from .snapshots import JacobianSnapshot, SnapshotTrajectory

__all__ = ["extract_tft", "snapshot_transfer_function", "default_frequency_grid"]


def default_frequency_grid(f_min: float = 1.0, f_max: float = 10e9,
                           points_per_decade: int = 4) -> np.ndarray:
    """Logarithmic frequency grid matching the span used in the paper's Fig. 6.

    The paper plots the TFT hyperplane from ~1 Hz up to 10 GHz; four points
    per decade over ten decades gives ~40 frequency samples, comparable to the
    discretisation used there.
    """
    return frequency_grid(f_min, f_max, points_per_decade)


def snapshot_transfer_function(snapshot: JacobianSnapshot, input_matrix: np.ndarray,
                               output_matrix: np.ndarray,
                               frequencies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``H(s)`` and ``H(0)`` for one snapshot.

    Returns ``(response, dc_response)`` with shapes ``(L, M_o, M_i)`` and
    ``(M_o, M_i)``.  ``G + sC`` is solved as the snapshot recorded it, with
    nothing added on the diagonal: like the paper, the transform relies on
    the circuit itself being well posed.
    """
    g_mat = snapshot.conductance
    c_mat = snapshot.capacitance
    frequencies = np.asarray(frequencies, dtype=float).ravel()
    n_outputs = output_matrix.shape[1]
    n_inputs = input_matrix.shape[1]
    try:
        dc_solve = np.linalg.solve(g_mat, input_matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "G(k) is singular at s=0; the circuit has a floating node or an "
            "all-capacitive cutset — add a leakage path") from exc
    dc_response = output_matrix.T @ dc_solve

    s_values = 2j * np.pi * frequencies
    try:
        # Batched LAPACK solves, chunked along the frequency axis to bound
        # the peak memory of the (chunk, n, n) system stack.
        return batched_transfer(g_mat, c_mat, s_values,
                                input_matrix, output_matrix), dc_response
    except np.linalg.LinAlgError:
        pass
    # Fall back to the per-frequency loop to report *which* frequency failed.
    response = np.empty((frequencies.size, n_outputs, n_inputs), dtype=complex)
    for idx, freq in enumerate(frequencies):
        s = 2j * np.pi * freq
        try:
            solved = np.linalg.solve(g_mat + s * c_mat, input_matrix)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"(G + sC) is singular at f={freq:.3g} Hz") from exc
        response[idx] = output_matrix.T @ solved
    return response, dc_response


def extract_tft(trajectory: SnapshotTrajectory, frequencies: np.ndarray | None = None,
                max_snapshots: int | None = None) -> TFTDataset:
    """Transform a snapshot trajectory into a :class:`TFTDataset`.

    Parameters
    ----------
    trajectory:
        Jacobian snapshots recorded during a transient analysis.
    frequencies:
        Frequency grid in Hz; defaults to :func:`default_frequency_grid`.
    max_snapshots:
        Optional thinning of the trajectory before the transform (the paper
        uses about 100 samples).

    The state of each snapshot is the input at its time, ``x = u(t_k)``
    (the first input of a multi-input circuit).  The snapshots are solved in
    contiguous ranges on the usable cores (see the module docstring); the
    dataset does not depend on the core count.
    """
    if len(trajectory) == 0:
        raise ReproError("cannot extract a TFT from an empty trajectory")
    if frequencies is None:
        frequencies = default_frequency_grid()
    if max_snapshots is not None:
        trajectory = trajectory.subsample(max_snapshots)

    frequencies = np.asarray(frequencies, dtype=float).ravel()
    states = trajectory.inputs()[:, 0]

    k_count = len(trajectory)
    n_outputs = trajectory.n_outputs
    n_inputs = trajectory.n_inputs
    response = np.empty((k_count, frequencies.size, n_outputs, n_inputs), dtype=complex)
    dc_response = np.empty((k_count, n_outputs, n_inputs), dtype=complex)

    def solve_range(start: int, stop: int) -> None:
        for k in range(start, stop):
            response[k], dc_response[k] = snapshot_transfer_function(
                trajectory[k], trajectory.input_matrix, trajectory.output_matrix,
                frequencies)

    fan_out(solve_range, k_count)

    return TFTDataset(
        frequencies=frequencies,
        states=states,
        response=response,
        dc_response=dc_response,
        times=trajectory.times,
        outputs=trajectory.outputs(),
        input_names=list(trajectory.input_names),
        output_names=list(trajectory.output_names),
    )
