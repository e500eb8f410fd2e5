"""Pole utilities for vector fitting: initial guesses, pairing and stability."""

from __future__ import annotations

import numpy as np

from ..exceptions import FittingError

__all__ = [
    "initial_complex_poles",
    "flip_unstable",
    "sort_poles",
    "split_real_complex",
]


def initial_complex_poles(f_min: float, f_max: float, n_poles: int,
                          loss_ratio: float = 0.01) -> np.ndarray:
    """Log-spaced complex starting poles, the standard VF initialisation.

    Poles come in conjugate pairs ``a = -loss_ratio*omega +/- j*omega`` with the
    imaginary parts logarithmically spaced over ``[2*pi*f_min, 2*pi*f_max]``.
    When ``n_poles`` is odd, one extra real pole at ``-2*pi*f_max`` is added.
    """
    if n_poles < 1:
        raise FittingError("need at least one starting pole")
    if f_min <= 0 or f_max <= f_min:
        raise FittingError("require 0 < f_min < f_max for pole initialisation")
    n_pairs = n_poles // 2
    poles: list[complex] = []
    if n_pairs:
        omegas = 2.0 * np.pi * np.logspace(np.log10(f_min), np.log10(f_max), n_pairs)
        for omega in omegas:
            poles.append(complex(-loss_ratio * omega, omega))
            poles.append(complex(-loss_ratio * omega, -omega))
    if n_poles % 2:
        poles.append(complex(-2.0 * np.pi * f_max, 0.0))
    return np.array(poles, dtype=complex)


def initial_state_poles(x_min: float, x_max: float, n_poles: int) -> np.ndarray:
    """Starting poles for fitting functions of a *real* state variable.

    The poles are complex conjugate pairs whose real parts are spread linearly
    over the sampled state interval and whose imaginary parts keep them a
    comfortable distance away from it — the standard vector-fitting
    initialisation transplanted from the frequency axis to the state axis.
    An odd ``n_poles`` adds one real pole below the interval.
    """
    if n_poles < 1:
        raise FittingError("need at least one starting pole")
    if x_max <= x_min:
        raise FittingError("require x_min < x_max for state-pole initialisation")
    span = x_max - x_min
    n_pairs = n_poles // 2
    poles: list[complex] = []
    if n_pairs:
        centers = np.linspace(x_min, x_max, n_pairs)
        offset = span / max(n_pairs, 2)
        for center in centers:
            poles.append(complex(center, offset))
            poles.append(complex(center, -offset))
    if n_poles % 2:
        poles.append(complex(x_min - span, 0.0))
    return np.array(poles, dtype=complex)


def flip_unstable(poles: np.ndarray) -> np.ndarray:
    """Mirror right-half-plane poles into the left half plane.

    This is what makes the extracted model "guaranteed stable by construction":
    after every pole-relocation step, any unstable pole is reflected about the
    imaginary axis.
    """
    poles = np.array(poles, dtype=complex, copy=True)
    unstable = poles.real > 0.0
    poles[unstable] = -np.conj(poles[unstable])
    # Guard against exactly-zero real parts which would sit on the boundary.
    on_axis = poles.real == 0.0
    poles[on_axis] -= 1e-12 * np.maximum(np.abs(poles[on_axis].imag), 1.0)
    return poles


def enforce_conjugate_closure(poles: np.ndarray, tolerance: float = 1e-3) -> np.ndarray:
    """Return the closest pole set that is exactly closed under conjugation.

    Eigenvalues of real matrices are conjugate-closed in exact arithmetic, but
    per-pole adjustments (stability flipping, sample-separation nudges) can
    break the symmetry slightly.  Poles with a well-matched partner are
    replaced by an exact conjugate pair; complex poles without a partner are
    collapsed onto the real axis.
    """
    poles = np.asarray(poles, dtype=complex)
    result: list[complex] = []
    used = [False] * len(poles)
    for i, p in enumerate(poles):
        if used[i]:
            continue
        scale = max(abs(p), 1.0)
        if abs(p.imag) <= 1e-10 * scale:
            result.append(complex(p.real, 0.0))
            used[i] = True
            continue
        best_j, best_err = None, None
        for j, q in enumerate(poles):
            if used[j] or j == i:
                continue
            err = abs(q - np.conj(p))
            if best_err is None or err < best_err:
                best_j, best_err = j, err
        if best_j is not None and best_err <= tolerance * scale:
            used[i] = used[best_j] = True
            head = p if p.imag > 0 else np.conj(p)
            result.extend([head, np.conj(head)])
        else:
            used[i] = True
            result.append(complex(p.real, 0.0))
    return np.array(result, dtype=complex)


def sort_poles(poles: np.ndarray) -> np.ndarray:
    """Sort poles: real poles first (ascending magnitude), then conjugate pairs.

    Complex poles are normalised so the member with positive imaginary part
    comes first in each pair.  The result is the canonical ordering assumed by
    the basis construction and the state-space realisations.
    """
    poles = np.asarray(poles, dtype=complex)
    real_poles = sorted([p for p in poles if p.imag == 0.0], key=lambda p: abs(p))
    complex_poles = [p for p in poles if p.imag != 0.0]
    pairs: list[complex] = []
    used = [False] * len(complex_poles)
    order = np.argsort([abs(p) for p in complex_poles])
    for idx in order:
        if used[idx]:
            continue
        p = complex_poles[idx]
        # Find the best conjugate partner among the unused poles.
        best_j, best_err = None, None
        for j, q in enumerate(complex_poles):
            if used[j] or j == idx:
                continue
            err = abs(q - np.conj(p))
            if best_err is None or err < best_err:
                best_j, best_err = j, err
        used[idx] = True
        if best_j is None:
            # No conjugate partner exists (complex-coefficient pole sets);
            # keep the pole as it is rather than fabricating one.
            pairs.append(p)
            continue
        used[best_j] = True
        first = p if p.imag > 0 else np.conj(p)
        pairs.extend([first, np.conj(first)])
    return np.array(list(real_poles) + pairs, dtype=complex)


def split_real_complex(poles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of real poles and of the first member of each conjugate pair.

    Assumes the canonical ordering produced by :func:`sort_poles`.
    """
    poles = np.asarray(poles, dtype=complex)
    real_idx = [i for i, p in enumerate(poles) if p.imag == 0.0]
    pair_idx = [i for i, p in enumerate(poles) if p.imag > 0.0]
    return np.array(real_idx, dtype=int), np.array(pair_idx, dtype=int)
