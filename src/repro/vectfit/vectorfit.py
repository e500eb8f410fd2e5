"""Relaxed vector fitting with a common pole set over many responses.

This implements the Vector Fitting algorithm of Gustavsen & Semlyen (IEEE
TPWRD 14(3), 1999) with the relaxed non-triviality constraint and the
QR-based per-response elimination of the "fast" implementation (the paper's
reference [9]; Deschrijver et al., IEEE MWCL 18(6), 2008).  Each
pole-relocation step stacks the equations of all ``K`` responses into one
``(K, rows, cols)`` array and eliminates every response's numerator
coefficients with a single batched QR, so the step costs one LAPACK dispatch
rather than ``K``.  A single pole set is identified that is shared by *all*
responses — exactly the property the TFT method relies on ("if one is able
to fix the poles over the entire state space, then the nonlinear
functionality is fully embedded in the residues").

Every fit uses real coefficients (conjugate-closed poles and
conjugate-symmetric residues), a constant term and uniform weights.  The
recursive step reuses the same engine: it fits the residue trajectories on
the real state samples, where the poles come in conjugate pairs about the
state axis (see :func:`repro.rvf.recursive.fit_residue_trajectories`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import FittingError
from .basis import basis_matrix, coefficients_to_residues
from .poles import enforce_conjugate_closure, flip_unstable, sort_poles, split_real_complex

__all__ = ["VectorFitResult", "vector_fit", "evaluate_model"]

#: The iteration stops once no pole moves by more than this, relative to its
#: magnitude.
POLE_CONVERGENCE_TOL = 1e-6
#: A relaxed step whose |d_tilde| falls below this is degenerate; the step is
#: redone with the non-relaxed formulation.
MIN_RELAXATION_MAGNITUDE = 1e-8


@dataclass
class VectorFitResult:
    """Common-pole rational approximation of a family of responses.

    ``residues[k, p]`` is the residue of pole ``p`` for response ``k``; the
    model of response ``k`` is
    ``sum_p residues[k, p] / (s - poles[p]) + constants[k]``.
    """

    poles: np.ndarray
    residues: np.ndarray
    constants: np.ndarray
    rms_error: float
    relative_error: float
    iterations: int

    @property
    def n_poles(self) -> int:
        return int(self.poles.size)

    @property
    def n_responses(self) -> int:
        return int(self.residues.shape[0])

    def evaluate(self, svals: np.ndarray) -> np.ndarray:
        """Evaluate every response model on a grid; returns ``(K, len(svals))``."""
        return evaluate_model(svals, self.poles, self.residues, self.constants)

    def is_stable(self) -> bool:
        """True when every pole lies strictly in the left half plane."""
        return bool(np.all(self.poles.real < 0.0))


def evaluate_model(svals: np.ndarray, poles: np.ndarray, residues: np.ndarray,
                   constants: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a common-pole pole-residue model on ``svals``.

    ``residues`` has shape ``(K, P)``; the result has shape ``(K, L)``.
    """
    svals = np.asarray(svals, dtype=complex).ravel()
    poles = np.asarray(poles, dtype=complex)
    residues = np.atleast_2d(np.asarray(residues, dtype=complex))
    cauchy = 1.0 / (svals[None, :] - poles[:, None])          # (P, L)
    values = residues @ cauchy                                # (K, L)
    if constants is not None:
        values = values + np.asarray(constants, dtype=complex)[:, None]
    return values


# --------------------------------------------------------------------------- #
# internals
# --------------------------------------------------------------------------- #

def _stack_real(matrix: np.ndarray) -> np.ndarray:
    """Real rows over imaginary rows (rows are the second-to-last axis)."""
    return np.concatenate([matrix.real, matrix.imag], axis=-2)


def _with_constant(svals: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The basis ``phi`` plus the constant column."""
    return np.column_stack([phi, np.ones_like(svals, dtype=complex)])


def _relocate_poles(svals: np.ndarray, data: np.ndarray, poles: np.ndarray,
                    enforce_stability: bool, relaxed: bool = True
                    ) -> tuple[np.ndarray, float]:
    """One pole-relocation step; returns (new_poles, |d_tilde|).

    For every response ``k`` the equations ``p_k(s) - sigma(s) H_k(s) = 0``
    (relaxed) or ``= H_k(s)`` (non-relaxed) are assembled into one
    ``(K, rows, cols)`` stack, real and imaginary parts stacked row-wise.
    One batched QR of that stack eliminates every response's numerator
    coefficients at once, so only the shared ``sigma`` coefficients remain —
    the fast multiport formulation of the paper's reference [9].  The relaxed
    step needs only the ``R`` factors.  When its ``d_tilde`` degenerates
    (below :data:`MIN_RELAXATION_MAGNITUDE`) the step is redone non-relaxed,
    which also projects each response's right-hand side onto its ``Q`` with
    one batched ``matmul``.
    """
    n_responses, n_samples = data.shape
    phi_sigma = basis_matrix(svals, poles)
    phi_num = _with_constant(svals, phi_sigma)
    n_num = phi_num.shape[1]
    n_sig = phi_sigma.shape[1]
    n_sig_cols = n_sig + (1 if relaxed else 0)

    h = data[:, :, None]
    blocks = np.empty((n_responses, n_samples, n_num + n_sig_cols), dtype=complex)
    blocks[:, :, :n_num] = phi_num
    np.multiply(-phi_sigma, h, out=blocks[:, :, n_num:n_num + n_sig])
    if relaxed:
        np.negative(h, out=blocks[:, :, n_num + n_sig:])
    blocks = _stack_real(blocks)

    if relaxed:
        r = np.linalg.qr(blocks, mode="r")
        rhs_vec = np.zeros(n_responses * (r.shape[1] - n_num))
    else:
        q, r = np.linalg.qr(blocks)
        projected = q.swapaxes(1, 2) @ _stack_real(h)
        rhs_vec = projected[:, n_num:, 0].ravel()
    lhs = r[:, n_num:, n_num:].reshape(-1, n_sig_cols)

    if relaxed:
        # Non-triviality constraint: the sum over all samples of sigma(s)
        # equals the number of samples (Gustavsen's relaxed formulation).
        # sigma(s) spans the same columns as the numerator: basis plus one.
        total_samples = data.size
        scale = float(np.linalg.norm(data)) / max(total_samples, 1)
        constraint = scale * np.sum(phi_num.real, axis=0) * n_responses
        lhs = np.vstack([lhs, constraint[None, :]])
        rhs_vec = np.concatenate([rhs_vec, [scale * total_samples]])

    solution, *_ = np.linalg.lstsq(lhs, rhs_vec, rcond=None)
    sigma_coeffs = solution[:n_sig]
    d_tilde = float(solution[n_sig]) if relaxed else 1.0

    if relaxed and abs(d_tilde) < MIN_RELAXATION_MAGNITUDE:
        # Degenerate relaxation: fall back to the non-relaxed formulation.
        return _relocate_poles(svals, data, poles, enforce_stability, relaxed=False)

    new_poles = _sigma_zeros(poles, sigma_coeffs, d_tilde)
    if enforce_stability:
        new_poles = flip_unstable(new_poles)
    return _canonical_order(new_poles), abs(d_tilde)


def _canonical_order(poles: np.ndarray) -> np.ndarray:
    """Canonical pole ordering: exact conjugate pairing, then :func:`sort_poles`."""
    return sort_poles(enforce_conjugate_closure(np.asarray(poles, dtype=complex)))


def _separate_poles_from_samples(poles: np.ndarray, svals: np.ndarray) -> np.ndarray:
    """Keep poles a minimal distance away from the evaluation points.

    A relocated pole that lands (numerically) on a sample makes the Cauchy
    basis singular and the least-squares solve blows up.  This mostly matters
    when fitting along a *state* axis, where nothing prevents a pole from
    drifting onto the sampled interval; frequency-axis fits with stable poles
    are unaffected.  The adjustment keeps the pole set closed under
    conjugation (real poles stay real).
    """
    poles = np.array(poles, dtype=complex, copy=True)
    scale = float(np.max(np.abs(svals))) or 1.0
    min_distance = 1e-6 * scale
    distances = np.abs(svals[None, :] - poles[:, None])          # (P, L)
    nearest = np.argmin(distances, axis=1)
    close = distances.min(axis=1) < min_distance
    if not close.any():
        return poles
    anchor = svals[nearest[close]]
    pole = poles[close]
    direction = pole - anchor
    # hypot, not the vectorised complex abs, rounds the length as abs() of a
    # single complex value does.  A pole exactly on a sample leaves
    # vertically, on its own side.
    length = np.hypot(direction.real, direction.imag)
    unit = np.where(length == 0.0, np.where(pole.imag >= 0.0, 1j, -1j),
                    direction / np.where(length == 0.0, 1.0, length))
    moved = anchor + unit * min_distance
    # Keep real poles real: push them along the real axis.
    on_axis = pole.imag == 0.0
    sign = np.where(direction.real >= 0.0, 1.0, -1.0)
    moved[on_axis] = anchor[on_axis].real + sign[on_axis] * min_distance
    poles[close] = moved
    # Re-symmetrise conjugate pairs that may have been nudged unevenly.
    return sort_poles(poles)


def _sigma_zeros(poles: np.ndarray, sigma_coeffs: np.ndarray, d_tilde: float) -> np.ndarray:
    """Zeros of sigma(s), i.e. the relocated poles (eigenvalue formulation).

    The zeros are the eigenvalues of ``A - b c^T / d_tilde`` for the real
    state-space realisation of the basis: ``A`` holds one diagonal entry per
    real pole and one rotation block per conjugate pair, in the column order
    of :func:`basis_matrix`, and ``c`` is ``sigma_coeffs`` in that order.
    """
    n = len(poles)
    if n == 0:
        return poles
    a_mat = np.zeros((n, n))
    b_vec = np.zeros(n)
    real_idx, pair_idx = split_real_complex(poles)
    cursor = 0
    for i in real_idx:
        a_mat[cursor, cursor] = poles[i].real
        b_vec[cursor] = 1.0
        cursor += 1
    for i in pair_idx:
        sigma_r = poles[i].real
        omega = poles[i].imag
        a_mat[cursor, cursor] = sigma_r
        a_mat[cursor, cursor + 1] = omega
        a_mat[cursor + 1, cursor] = -omega
        a_mat[cursor + 1, cursor + 1] = sigma_r
        b_vec[cursor] = 2.0
        cursor += 2
    h_mat = a_mat - np.outer(b_vec, sigma_coeffs) / d_tilde
    return np.linalg.eigvals(h_mat).astype(complex)


def _identify_residues(svals: np.ndarray, data: np.ndarray, poles: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Least-squares residues/constants for fixed poles; returns errors too."""
    phi = _with_constant(svals, basis_matrix(svals, poles))
    n_basis = len(poles)
    solution, *_ = np.linalg.lstsq(_stack_real(phi), _stack_real(data.T), rcond=None)
    solution = solution.T                                      # (K, n_cols)

    residues = np.zeros((data.shape[0], n_basis), dtype=complex)
    for k, row in enumerate(solution):
        residues[k] = coefficients_to_residues(row[:n_basis], poles)
    constants = solution[:, n_basis].astype(complex)

    model = evaluate_model(svals, poles, residues, constants)
    rms = float(np.sqrt(np.mean(np.abs(model - data) ** 2)))
    scale = float(np.sqrt(np.mean(np.abs(data) ** 2)))
    relative = rms / scale if scale > 0 else rms
    return residues, constants, rms, relative


# --------------------------------------------------------------------------- #
# public entry point
# --------------------------------------------------------------------------- #

def vector_fit(svals: np.ndarray, data: np.ndarray, initial_poles: np.ndarray, *,
               n_iterations: int = 12, enforce_stability: bool = True) -> VectorFitResult:
    """Fit a common-pole rational model to a family of responses.

    Parameters
    ----------
    svals:
        Complex evaluation points (``j*2*pi*f`` for frequency responses, or
        the real state samples when fitting along a state axis), shape
        ``(L,)``.
    data:
        Response samples, shape ``(K, L)`` (a 1-D array is treated as a single
        response).
    initial_poles:
        Starting poles, paired into exact conjugates before the first step
        (:func:`~repro.vectfit.poles.enforce_conjugate_closure`); see
        :mod:`repro.vectfit.poles` for generators.
    n_iterations:
        Most pole-relocation steps; the loop stops earlier once the poles
        settle (:data:`POLE_CONVERGENCE_TOL`).
    enforce_stability:
        Reflect right-half-plane poles after every step.  Frequency fits keep
        it on; a state-axis fit has no stability to keep.
    """
    if n_iterations < 1:
        raise FittingError("n_iterations must be at least 1")

    svals = np.asarray(svals, dtype=complex).ravel()
    data = np.atleast_2d(np.asarray(data, dtype=complex))
    if data.shape[1] != svals.size:
        raise FittingError(
            f"data has {data.shape[1]} samples per response but {svals.size} svals given")
    poles = _canonical_order(np.asarray(initial_poles, dtype=complex))
    n_samples_needed = len(poles) + 1
    if svals.size < n_samples_needed:
        raise FittingError(
            f"{svals.size} samples cannot determine {n_samples_needed} coefficients; "
            "reduce the model order or supply more samples")

    iterations_used = 0
    poles = _separate_poles_from_samples(poles, svals)
    for iteration in range(n_iterations):
        iterations_used = iteration + 1
        new_poles, _ = _relocate_poles(svals, data, poles, enforce_stability)
        new_poles = _separate_poles_from_samples(new_poles, svals)
        movement = _pole_movement(poles, new_poles)
        poles = new_poles
        if movement < POLE_CONVERGENCE_TOL:
            break

    residues, constants, rms, relative = _identify_residues(svals, data, poles)

    return VectorFitResult(
        poles=poles,
        residues=residues,
        constants=constants,
        rms_error=rms,
        relative_error=relative,
        iterations=iterations_used,
    )


def _pole_movement(old: np.ndarray, new: np.ndarray) -> float:
    """Relative pole displacement between iterations (for convergence checks)."""
    if old.size != new.size or old.size == 0:
        return np.inf
    old_sorted = np.sort_complex(old)
    new_sorted = np.sort_complex(new)
    scale = np.maximum(np.abs(old_sorted), 1e-30)
    return float(np.max(np.abs(old_sorted - new_sorted) / scale))
