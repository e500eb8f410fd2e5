"""Analytical residue functions produced by the recursive vector fitting step.

Two value types live here:

* :class:`PartialFractionFunction` — a complex-valued function of one real
  state variable, written as a constant plus a partial fraction expansion
  ``sum_q c_q / (j x - b_q)``.  This is the form the RVF step produces for
  every frequency-pole residue trajectory ``r_p(x)`` (and for the
  instantaneous gain ``H(x, 0)``).
* :class:`IntegratedPartialFraction` — its exact antiderivative with respect
  to the state variable, which becomes the static nonlinear block
  ``f_p(x) = f_{p,0} + \\int r_p(x) du`` of the Hammerstein model.

Both evaluate vectorised over NumPy arrays and can print themselves as
human-readable analytical expressions for the model export.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ModelError
from .integration import basis_primitive

__all__ = ["PartialFractionFunction", "IntegratedPartialFraction"]


@dataclass
class PartialFractionFunction:
    """``f(x) = constant + sum_q coefficients[q] / (j*x - poles[q])``.

    ``variable`` is only used for pretty-printing (e.g. ``"u"`` or ``"x2"``).
    """

    poles: np.ndarray
    coefficients: np.ndarray
    constant: complex = 0.0
    variable: str = "u"

    def __post_init__(self) -> None:
        self.poles = np.atleast_1d(np.asarray(self.poles, dtype=complex))
        self.coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if self.poles.shape != self.coefficients.shape:
            raise ModelError("poles and coefficients must have matching shapes")
        self.constant = complex(self.constant)

    # ---------------------------------------------------------------- algebra
    @property
    def order(self) -> int:
        return int(self.poles.size)

    def __call__(self, x: np.ndarray | float) -> np.ndarray | complex:
        x_arr = np.asarray(x, dtype=float)
        value = np.full(x_arr.shape, self.constant, dtype=complex)
        for pole, coeff in zip(self.poles, self.coefficients):
            value = value + coeff / (1j * x_arr - pole)
        if np.isscalar(x):
            return complex(value)
        return value

    def conjugate(self) -> "PartialFractionFunction":
        """Function whose values are the complex conjugate for real ``x``.

        ``conj(1/(jx - b)) = -1/(jx + conj(b))``, so the conjugate function is
        again a partial fraction with poles ``-conj(b_q)``.
        """
        return PartialFractionFunction(
            poles=-np.conj(self.poles),
            coefficients=-np.conj(self.coefficients),
            constant=np.conj(self.constant),
            variable=self.variable,
        )

    def scaled(self, factor: complex) -> "PartialFractionFunction":
        return PartialFractionFunction(self.poles.copy(), factor * self.coefficients,
                                       factor * self.constant, self.variable)

    # ------------------------------------------------------------ integration
    def antiderivative(self) -> "IntegratedPartialFraction":
        """Exact antiderivative with respect to the state variable."""
        return IntegratedPartialFraction(
            poles=self.poles.copy(),
            coefficients=self.coefficients.copy(),
            linear_coefficient=self.constant,
            offset=0.0,
            variable=self.variable,
        )

    # --------------------------------------------------------------- printing
    def to_expression(self, precision: int = 6) -> str:
        """Human-readable analytical expression, e.g. for the model export."""
        parts = [_format_complex(self.constant, precision)]
        for pole, coeff in zip(self.poles, self.coefficients):
            parts.append(
                f"{_format_complex(coeff, precision)}/(j*{self.variable} "
                f"- ({_format_complex(pole, precision)}))")
        return " + ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PartialFractionFunction(order={self.order}, variable={self.variable!r})"


@dataclass
class IntegratedPartialFraction:
    """Antiderivative of a :class:`PartialFractionFunction`.

    ``F(u) = offset + linear_coefficient*u + sum_q coefficients[q]*P(u; poles[q])``
    where ``P`` is the smooth primitive of ``1/(j*u - b)`` implemented in
    :func:`repro.rvf.integration.basis_primitive`.
    """

    poles: np.ndarray
    coefficients: np.ndarray
    linear_coefficient: complex = 0.0
    offset: complex = 0.0
    variable: str = "u"

    def __post_init__(self) -> None:
        self.poles = np.atleast_1d(np.asarray(self.poles, dtype=complex))
        self.coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if self.poles.shape != self.coefficients.shape:
            raise ModelError("poles and coefficients must have matching shapes")
        self.linear_coefficient = complex(self.linear_coefficient)
        self.offset = complex(self.offset)

    def __call__(self, u: np.ndarray | float) -> np.ndarray | complex:
        u_arr = np.asarray(u, dtype=float)
        value = np.full(u_arr.shape, self.offset, dtype=complex)
        value = value + self.linear_coefficient * u_arr
        for pole, coeff in zip(self.poles, self.coefficients):
            value = value + coeff * basis_primitive(u_arr, pole)
        if np.isscalar(u):
            return complex(value)
        return value

    def derivative(self) -> PartialFractionFunction:
        """Recover the integrand (used to verify the calculus in tests)."""
        return PartialFractionFunction(self.poles.copy(), self.coefficients.copy(),
                                       self.linear_coefficient, self.variable)

    def with_value_at(self, u0: float, value: complex) -> "IntegratedPartialFraction":
        """Copy whose integration constant is fixed so that ``F(u0) == value``.

        This implements the paper's "the remaining constant after indefinite
        integration can be found using the DC solution of the circuit".
        """
        current = self(float(u0))
        return IntegratedPartialFraction(
            poles=self.poles.copy(),
            coefficients=self.coefficients.copy(),
            linear_coefficient=self.linear_coefficient,
            offset=self.offset + (value - current),
            variable=self.variable,
        )

    def to_expression(self, precision: int = 6) -> str:
        """Analytical expression using atan/log (for the model export)."""
        u = self.variable
        parts = [_format_complex(self.offset, precision),
                 f"{_format_complex(self.linear_coefficient, precision)}*{u}"]
        for pole, coeff in zip(self.poles, self.coefficients):
            sigma = _format_real(pole.real, precision)
            tau = _format_real(pole.imag, precision)
            parts.append(
                f"{_format_complex(coeff, precision)}*(-atan(({u} - {tau})/{sigma}) "
                f"- 0.5j*log(({u} - {tau})**2 + {sigma}**2))")
        return " + ".join(parts)


def _format_real(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _format_complex(value: complex, precision: int) -> str:
    value = complex(value)
    if value.imag == 0.0:
        return f"{value.real:.{precision}g}"
    sign = "+" if value.imag >= 0 else "-"
    return f"({value.real:.{precision}g}{sign}{abs(value.imag):.{precision}g}j)"
