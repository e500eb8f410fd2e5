"""Closed-form antiderivatives of the RVF basis functions.

The key property the paper exploits (its eqs. (18)-(19)) is that the partial
fraction basis used for the residue functions has a *known, compact
indefinite integral*:

.. math:: \\int \\frac{du}{j u - b} = -j\\,\\log(j u - b) + C

so the static nonlinear blocks of the Hammerstein model can be written down
analytically instead of requiring symbolic or numerical integration (the
CAFFEINE drawback).  To avoid the branch cut of the complex logarithm when
the integration path crosses ``Im(b)``, the primitive is implemented in the
explicitly smooth real/imaginary form

.. math::

    \\int \\frac{du}{j u - b}
      = -\\arctan\\!\\frac{u - \\operatorname{Im} b}{\\operatorname{Re} b}
        \\;-\\; \\tfrac{j}{2} \\ln\\!\\big((u - \\operatorname{Im} b)^2
        + (\\operatorname{Re} b)^2\\big)

which is valid (and infinitely differentiable in ``u``) for any pole with a
non-zero real part, regardless of its sign.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError

__all__ = ["basis_primitive"]

#: Poles closer to the imaginary axis than this are rejected: the basis
#: function 1/(j*x - b) would develop a near-singularity inside the state
#: range and its primitive would become extremely stiff.
MIN_POLE_REAL_PART = 1e-12


def basis_primitive(u: np.ndarray | float, pole: complex) -> np.ndarray | complex:
    """Antiderivative of ``1/(j*u - pole)`` with respect to ``u``.

    The result is smooth in ``u`` for any ``pole`` with ``Re(pole) != 0`` and
    satisfies ``d/du basis_primitive(u, b) == 1/(j*u - b)`` exactly.
    """
    sigma = float(np.real(pole))
    tau = float(np.imag(pole))
    if abs(sigma) < MIN_POLE_REAL_PART:
        raise ModelError(
            f"state pole {pole} lies (numerically) on the imaginary axis; its basis "
            "function is singular for real states and cannot be integrated")
    w = np.asarray(u, dtype=float) - tau
    value = -np.arctan(w / sigma) - 0.5j * np.log(w * w + sigma * sigma)
    if np.isscalar(u):
        return complex(value)
    return value

