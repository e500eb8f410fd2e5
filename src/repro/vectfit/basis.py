"""Partial-fraction basis construction for vector fitting.

The basis is the classic real-coefficient one for responses of real
systems: real poles contribute one column ``1/(s-a)``; each complex
conjugate pair contributes the two real-coefficient columns
``1/(s-a) + 1/(s-a*)`` and ``j/(s-a) - j/(s-a*)``.  Solving a real
least-squares problem in these coefficients automatically produces
conjugate-symmetric residues.  Frequency responses (``s = j*omega``) and
residue trajectories sampled on the real state axis are both fitted in it.
"""

from __future__ import annotations

import numpy as np

from .poles import split_real_complex

__all__ = [
    "basis_matrix",
    "coefficients_to_residues",
    "residues_to_coefficients",
]


def basis_matrix(svals: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Complex basis matrix ``Phi`` with one row per sample.

    The columns are ordered: one column per real pole followed by two columns
    per conjugate pair (in the canonical pole ordering of
    :func:`repro.vectfit.poles.sort_poles`).  Every column of a kind is built
    by one array operation over all of its poles, element for element the
    same arithmetic as building the columns one pole at a time.
    """
    svals = np.asarray(svals, dtype=complex).ravel()
    poles = np.asarray(poles, dtype=complex)
    real_idx, pair_idx = split_real_complex(poles)
    n_real = real_idx.size
    phi = np.empty((svals.size, n_real + 2 * pair_idx.size), dtype=complex)
    phi[:, :n_real] = 1.0 / (svals[:, None] - poles[real_idx])
    phi_plus = 1.0 / (svals[:, None] - poles[pair_idx])
    phi_minus = 1.0 / (svals[:, None] - np.conj(poles[pair_idx]))
    phi[:, n_real::2] = phi_plus + phi_minus
    phi[:, n_real + 1::2] = 1j * phi_plus - 1j * phi_minus
    return phi


def coefficients_to_residues(coefficients: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Convert basis coefficients into one complex residue per pole.

    The returned array is aligned with ``poles``; the residues of a conjugate
    pair are themselves conjugate.
    """
    coefficients = np.asarray(coefficients)
    poles = np.asarray(poles, dtype=complex)
    residues = np.zeros(len(poles), dtype=complex)
    real_idx, pair_idx = split_real_complex(poles)
    cursor = 0
    for i in real_idx:
        residues[i] = coefficients[cursor]
        cursor += 1
    for i in pair_idx:
        cr = coefficients[cursor]
        ci = coefficients[cursor + 1]
        cursor += 2
        residues[i] = cr + 1j * ci
        # The conjugate partner immediately follows in canonical ordering.
        residues[i + 1] = cr - 1j * ci
    return residues


def residues_to_coefficients(residues: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Inverse of :func:`coefficients_to_residues` (used by tests)."""
    residues = np.asarray(residues, dtype=complex)
    poles = np.asarray(poles, dtype=complex)
    real_idx, pair_idx = split_real_complex(poles)
    coefficients: list[float] = []
    for i in real_idx:
        coefficients.append(residues[i].real)
    for i in pair_idx:
        coefficients.append(residues[i].real)
        coefficients.append(residues[i].imag)
    return np.array(coefficients)
