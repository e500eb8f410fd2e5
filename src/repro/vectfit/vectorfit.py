"""(Relaxed) vector fitting with a common pole set over many responses.

This implements the Vector Fitting algorithm of Gustavsen & Semlyen (IEEE
TPWRD 14(3), 1999) with the relaxed non-triviality constraint and the
QR-based per-response elimination of the "fast" implementation (the paper's
reference [9]; Deschrijver et al., IEEE MWCL 18(6), 2008).  Each
pole-relocation step stacks the weighted equations of all ``K`` responses
into one ``(K, rows, cols)`` array and eliminates every response's numerator
coefficients with a single batched QR, so the step costs one LAPACK dispatch
rather than ``K``.  A single pole set is identified that is shared by *all*
responses — exactly the property the TFT method relies on ("if one is able
to fix the poles over the entire state space, then the nonlinear
functionality is fully embedded in the residues").

The same engine is reused by the recursive step: fitting residue trajectories
along the state axis is just vector fitting with ``s = j*x`` and complex
(unsymmetric) coefficients, so the ``real_coefficients`` switch selects
between the two usages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import FittingError
from .basis import basis_matrix, coefficients_to_residues
from .poles import enforce_conjugate_closure, flip_unstable, sort_poles, split_real_complex

__all__ = ["VectorFitOptions", "VectorFitResult", "vector_fit", "evaluate_model"]


@dataclass
class VectorFitOptions:
    """Configuration of a vector-fitting run."""

    n_iterations: int = 12
    real_coefficients: bool = True
    relaxed: bool = True
    fit_constant: bool = True
    fit_proportional: bool = False
    enforce_stability: bool = True
    weighting: str = "uniform"            # "uniform" | "inverse" | "inverse_sqrt"
    pole_convergence_tol: float = 1e-6
    min_relaxation_magnitude: float = 1e-8

    def validate(self) -> None:
        if self.weighting not in ("uniform", "inverse", "inverse_sqrt"):
            raise FittingError(f"unknown weighting scheme {self.weighting!r}")
        if self.n_iterations < 1:
            raise FittingError("n_iterations must be at least 1")


@dataclass
class VectorFitResult:
    """Common-pole rational approximation of a family of responses.

    ``residues[k, p]`` is the residue of pole ``p`` for response ``k``; the
    model of response ``k`` is
    ``sum_p residues[k, p] / (s - poles[p]) + constants[k] + proportionals[k] * s``.
    """

    poles: np.ndarray
    residues: np.ndarray
    constants: np.ndarray
    proportionals: np.ndarray
    rms_error: float
    relative_error: float
    iterations: int
    real_mode: bool
    svals: np.ndarray = field(repr=False, default=None)

    @property
    def n_poles(self) -> int:
        return int(self.poles.size)

    @property
    def n_responses(self) -> int:
        return int(self.residues.shape[0])

    def evaluate(self, svals: np.ndarray) -> np.ndarray:
        """Evaluate every response model on a grid; returns ``(K, len(svals))``."""
        return evaluate_model(svals, self.poles, self.residues,
                              self.constants, self.proportionals)

    def is_stable(self) -> bool:
        """True when every pole lies strictly in the left half plane."""
        return bool(np.all(self.poles.real < 0.0))


def evaluate_model(svals: np.ndarray, poles: np.ndarray, residues: np.ndarray,
                   constants: np.ndarray | None = None,
                   proportionals: np.ndarray | None = None) -> np.ndarray:
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
    if proportionals is not None:
        values = values + np.asarray(proportionals, dtype=complex)[:, None] * svals[None, :]
    return values


# --------------------------------------------------------------------------- #
# internals
# --------------------------------------------------------------------------- #

def _compute_weights(data: np.ndarray, scheme: str) -> np.ndarray:
    magnitude = np.abs(data)
    floor = max(magnitude.max(), 1e-300) * 1e-12
    magnitude = np.maximum(magnitude, floor)
    if scheme == "uniform":
        return np.ones_like(magnitude)
    if scheme == "inverse":
        return 1.0 / magnitude
    return 1.0 / np.sqrt(magnitude)


def _stack_real(matrix: np.ndarray) -> np.ndarray:
    """Real rows over imaginary rows (rows are the second-to-last axis)."""
    return np.concatenate([matrix.real, matrix.imag], axis=-2)


def _numerator_columns(svals: np.ndarray, phi: np.ndarray,
                       opts: VectorFitOptions) -> np.ndarray:
    """The basis ``phi`` plus the constant and proportional columns opted in."""
    extra = []
    if opts.fit_constant:
        extra.append(np.ones_like(svals, dtype=complex))
    if opts.fit_proportional:
        extra.append(np.asarray(svals, dtype=complex))
    return np.column_stack([phi] + extra) if extra else phi


def _relocate_poles(svals: np.ndarray, data: np.ndarray, weights: np.ndarray,
                    poles: np.ndarray, opts: VectorFitOptions) -> tuple[np.ndarray, float]:
    """One pole-relocation step; returns (new_poles, |d_tilde|).

    For every response ``k`` the (weighted) equations
    ``p_k(s) - sigma(s) H_k(s) = 0`` (relaxed) or ``= H_k(s)`` (non-relaxed)
    are assembled into one ``(K, rows, cols)`` stack (real and imaginary
    parts stacked row-wise in real mode).  One batched QR of that stack
    eliminates every response's numerator coefficients at once, so only the
    shared ``sigma`` coefficients remain — the fast multiport formulation of
    the paper's reference [9].  The relaxed path needs only the ``R``
    factors; the non-relaxed fallback also projects each response's
    right-hand side onto its ``Q`` with one batched ``matmul``.
    """
    real_mode = opts.real_coefficients
    use_relaxed = opts.relaxed
    n_responses, n_samples = data.shape
    phi_sigma = basis_matrix(svals, poles, real_mode)
    phi_num = _numerator_columns(svals, phi_sigma, opts)
    n_num = phi_num.shape[1]
    n_sig = phi_sigma.shape[1]
    n_sig_cols = n_sig + (1 if use_relaxed else 0)

    h = data[:, :, None]
    blocks = np.empty((n_responses, n_samples, n_num + n_sig_cols), dtype=complex)
    blocks[:, :, :n_num] = phi_num
    np.multiply(-phi_sigma, h, out=blocks[:, :, n_num:n_num + n_sig])
    if use_relaxed:
        np.negative(h, out=blocks[:, :, n_num + n_sig:])
    blocks *= weights[:, :, None]
    if real_mode:
        blocks = _stack_real(blocks)

    if use_relaxed:
        r = np.linalg.qr(blocks, mode="r")
        rhs_vec = np.zeros(n_responses * (r.shape[1] - n_num), dtype=blocks.dtype)
    else:
        q, r = np.linalg.qr(blocks)
        rhs = (data * weights)[:, :, None]
        projected = q.conj().swapaxes(1, 2) @ (_stack_real(rhs) if real_mode else rhs)
        rhs_vec = projected[:, n_num:, 0].ravel()
    lhs = r[:, n_num:, n_num:].reshape(-1, n_sig_cols)

    if use_relaxed:
        # Non-triviality constraint: the sum over all samples of sigma(s)
        # equals the number of samples (Gustavsen's relaxed formulation).
        total_samples = data.size
        scale = float(np.linalg.norm(weights * data)) / max(total_samples, 1)
        sigma_full = np.column_stack([phi_sigma, np.ones_like(svals, dtype=complex)])
        if real_mode:
            constraint = scale * np.sum(sigma_full.real, axis=0) * n_responses
        else:
            constraint = scale * np.sum(sigma_full, axis=0) * n_responses
        lhs = np.vstack([lhs, constraint[None, :]])
        rhs_vec = np.concatenate([rhs_vec, [scale * total_samples]])

    solution, *_ = np.linalg.lstsq(lhs, rhs_vec, rcond=None)
    sigma_coeffs = solution[:n_sig]
    if use_relaxed:
        d_tilde = float(solution[n_sig].real) if real_mode else complex(solution[n_sig])
    else:
        d_tilde = 1.0

    if use_relaxed and abs(d_tilde) < opts.min_relaxation_magnitude:
        # Degenerate relaxation: fall back to the non-relaxed formulation.
        fallback = VectorFitOptions(**{**opts.__dict__, "relaxed": False})
        return _relocate_poles(svals, data, weights, poles, fallback)

    new_poles = _sigma_zeros(poles, sigma_coeffs, d_tilde, opts.real_coefficients)
    if opts.enforce_stability:
        new_poles = flip_unstable(new_poles)
    return _canonical_order(new_poles, opts.real_coefficients), abs(d_tilde)


def _canonical_order(poles: np.ndarray, real_mode: bool) -> np.ndarray:
    """Canonical pole ordering: conjugate pairing in real mode, |p| sort otherwise."""
    poles = np.asarray(poles, dtype=complex)
    if real_mode:
        return sort_poles(enforce_conjugate_closure(poles))
    return poles[np.argsort(np.abs(poles), kind="stable")]


def _separate_poles_from_samples(poles: np.ndarray, svals: np.ndarray,
                                 real_mode: bool) -> np.ndarray:
    """Keep poles a minimal distance away from the evaluation points.

    A relocated pole that lands (numerically) on a sample makes the Cauchy
    basis singular and the least-squares solve blows up.  This mostly matters
    when fitting along a *state* axis, where nothing prevents a pole from
    drifting onto the sampled interval; frequency-axis fits with stable poles
    are unaffected.  In real-coefficient mode the adjustment keeps the pole
    set closed under conjugation (real poles stay real).
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
    if real_mode:
        # Keep real poles real: push them along the real axis.
        on_axis = pole.imag == 0.0
        sign = np.where(direction.real >= 0.0, 1.0, -1.0)
        moved[on_axis] = anchor[on_axis].real + sign[on_axis] * min_distance
    poles[close] = moved
    if real_mode:
        # Re-symmetrise conjugate pairs that may have been nudged unevenly.
        poles = sort_poles(poles)
    return poles


def _sigma_zeros(poles: np.ndarray, sigma_coeffs: np.ndarray, d_tilde: complex,
                 real_mode: bool) -> np.ndarray:
    """Zeros of sigma(s), i.e. the relocated poles (eigenvalue formulation)."""
    n = len(poles)
    if n == 0:
        return poles
    if real_mode:
        a_mat = np.zeros((n, n))
        b_vec = np.zeros(n)
        c_vec = np.zeros(n)
        real_idx, pair_idx = split_real_complex(poles)
        cursor = 0
        positions: list[int] = []
        for i in real_idx:
            a_mat[cursor, cursor] = poles[i].real
            b_vec[cursor] = 1.0
            positions.append(cursor)
            cursor += 1
        coeff_cursor = len(real_idx)
        for j, i in enumerate(real_idx):
            c_vec[positions[j]] = np.real(sigma_coeffs[j])
        for i in pair_idx:
            sigma_r = poles[i].real
            omega = poles[i].imag
            a_mat[cursor, cursor] = sigma_r
            a_mat[cursor, cursor + 1] = omega
            a_mat[cursor + 1, cursor] = -omega
            a_mat[cursor + 1, cursor + 1] = sigma_r
            b_vec[cursor] = 2.0
            c_vec[cursor] = np.real(sigma_coeffs[coeff_cursor])
            c_vec[cursor + 1] = np.real(sigma_coeffs[coeff_cursor + 1])
            coeff_cursor += 2
            cursor += 2
        h_mat = a_mat - np.outer(b_vec, c_vec) / d_tilde
        return np.linalg.eigvals(h_mat).astype(complex)
    # Complex mode: sigma(s) = d_tilde + sum c_p/(s - a_p); zeros are the
    # eigenvalues of diag(a) - (1/d_tilde) * ones * c^T.
    h_mat = np.diag(poles) - np.outer(np.ones(n, dtype=complex), sigma_coeffs) / d_tilde
    return np.linalg.eigvals(h_mat)


def _identify_residues(svals: np.ndarray, data: np.ndarray, weights: np.ndarray,
                       poles: np.ndarray, opts: VectorFitOptions
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Least-squares residues/constants for fixed poles; returns errors too."""
    real_mode = opts.real_coefficients
    phi = _numerator_columns(svals, basis_matrix(svals, poles, real_mode), opts)
    n_responses = data.shape[0]
    n_basis = len(poles)

    residues = np.zeros((n_responses, len(poles)), dtype=complex)
    constants = np.zeros(n_responses, dtype=complex)
    proportionals = np.zeros(n_responses, dtype=complex)

    uniform = np.allclose(weights, weights[0])
    if uniform:
        lhs = phi * weights[0][:, None]
        rhs = (data * weights[0][None, :]).T
        if real_mode:
            lhs = _stack_real(lhs)
            rhs = np.vstack([rhs.real, rhs.imag])
        solution, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        solution = solution.T                                  # (K, n_cols)
    else:
        rows = []
        for k in range(n_responses):
            lhs = phi * weights[k][:, None]
            rhs = data[k] * weights[k]
            if real_mode:
                lhs = _stack_real(lhs)
                rhs = np.concatenate([rhs.real, rhs.imag])
            sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
            rows.append(sol)
        solution = np.array(rows)

    cursor = n_basis
    for k in range(n_responses):
        residues[k] = coefficients_to_residues(solution[k, :n_basis], poles, real_mode)
    if opts.fit_constant:
        constants = solution[:, cursor].astype(complex)
        cursor += 1
    if opts.fit_proportional:
        proportionals = solution[:, cursor].astype(complex)

    model = evaluate_model(svals, poles, residues, constants, proportionals)
    deviation = (model - data) * weights
    rms = float(np.sqrt(np.mean(np.abs(deviation) ** 2)))
    scale = float(np.sqrt(np.mean(np.abs(data * weights) ** 2)))
    relative = rms / scale if scale > 0 else rms
    return residues, constants, proportionals, rms, relative


# --------------------------------------------------------------------------- #
# public entry point
# --------------------------------------------------------------------------- #

def vector_fit(svals: np.ndarray, data: np.ndarray, initial_poles: np.ndarray,
               options: VectorFitOptions | None = None) -> VectorFitResult:
    """Fit a common-pole rational model to a family of responses.

    Parameters
    ----------
    svals:
        Complex evaluation points (``j*2*pi*f`` for frequency responses, or
        ``j*x`` when fitting along a state axis), shape ``(L,)``.
    data:
        Response samples, shape ``(K, L)`` (a 1-D array is treated as a single
        response).
    initial_poles:
        Starting poles; see :mod:`repro.vectfit.poles` for generators.
    options:
        :class:`VectorFitOptions`.
    """
    opts = options or VectorFitOptions()
    opts.validate()

    svals = np.asarray(svals, dtype=complex).ravel()
    data = np.atleast_2d(np.asarray(data, dtype=complex))
    if data.shape[1] != svals.size:
        raise FittingError(
            f"data has {data.shape[1]} samples per response but {svals.size} svals given")
    poles = _canonical_order(np.asarray(initial_poles, dtype=complex),
                             opts.real_coefficients)
    if opts.real_coefficients:
        # Real-coefficient mode requires poles closed under conjugation.
        _, pair_idx = split_real_complex(poles)
        n_complex = int(np.sum(poles.imag != 0))
        if n_complex != 2 * len(pair_idx):
            raise FittingError("real-coefficient mode needs conjugate-closed poles")
    n_samples_needed = len(poles) + int(opts.fit_constant) + int(opts.fit_proportional)
    if svals.size < n_samples_needed:
        raise FittingError(
            f"{svals.size} samples cannot determine {n_samples_needed} coefficients; "
            "reduce the model order or supply more samples")

    weights = _compute_weights(data, opts.weighting)

    iterations_used = 0
    poles = _separate_poles_from_samples(poles, svals, opts.real_coefficients)
    for iteration in range(opts.n_iterations):
        iterations_used = iteration + 1
        new_poles, _ = _relocate_poles(svals, data, weights, poles, opts)
        new_poles = _separate_poles_from_samples(new_poles, svals, opts.real_coefficients)
        movement = _pole_movement(poles, new_poles)
        poles = new_poles
        if movement < opts.pole_convergence_tol:
            break

    residues, constants, proportionals, rms, relative = _identify_residues(
        svals, data, weights, poles, opts)

    return VectorFitResult(
        poles=poles,
        residues=residues,
        constants=constants,
        proportionals=proportionals,
        rms_error=rms,
        relative_error=relative,
        iterations=iterations_used,
        real_mode=opts.real_coefficients,
        svals=svals,
    )


def _pole_movement(old: np.ndarray, new: np.ndarray) -> float:
    """Relative pole displacement between iterations (for convergence checks)."""
    if old.size != new.size or old.size == 0:
        return np.inf
    old_sorted = np.sort_complex(old)
    new_sorted = np.sort_complex(new)
    scale = np.maximum(np.abs(old_sorted), 1e-30)
    return float(np.max(np.abs(old_sorted - new_sorted) / scale))
