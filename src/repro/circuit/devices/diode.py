"""Junction diode with exponential I-V and nonlinear junction/diffusion charge."""

from __future__ import annotations

import math

import numpy as np

from ...exceptions import CircuitError
from .base import TwoTerminal, add_at, add_jac

__all__ = ["Diode"]

#: Thermal voltage at ~300 K.
THERMAL_VOLTAGE = 0.02585


class Diode(TwoTerminal):
    """Shockley diode ``i = Is (exp(v / (n Vt)) - 1)`` with charge storage.

    To keep Newton iterations bounded, the exponential is linearised above a
    critical voltage ``v_crit`` (the standard SPICE treatment).  The charge
    model combines a depletion (junction) capacitance

    .. math:: C_j(v) = C_{j0} (1 - v/V_j)^{-m}, \\qquad v < f_c V_j

    (linearised beyond ``f_c V_j``) with a diffusion capacitance
    ``C_d = \\tau_t \\cdot g_d``.  Both the current and the charge are therefore
    genuinely nonlinear, which exercises the state dependence of both MNA
    Jacobians ``G(k)`` and ``C(k)`` used by the TFT extraction.
    """

    def __init__(self, name: str, node_pos: str, node_neg: str, *,
                 saturation_current: float = 1e-14, emission_coefficient: float = 1.0,
                 series_resistance: float = 0.0, junction_capacitance: float = 0.0,
                 junction_potential: float = 0.8, grading_coefficient: float = 0.5,
                 transit_time: float = 0.0, forward_bias_threshold: float = 0.5) -> None:
        super().__init__(name, node_pos, node_neg)
        if saturation_current <= 0.0:
            raise CircuitError(f"{name}: saturation current must be positive")
        if not 0.0 < grading_coefficient < 1.0:
            raise CircuitError(f"{name}: grading coefficient must lie in (0, 1)")
        self.saturation_current = float(saturation_current)
        self.emission_coefficient = float(emission_coefficient)
        self.series_resistance = float(series_resistance)
        self.junction_capacitance = float(junction_capacitance)
        self.junction_potential = float(junction_potential)
        self.grading_coefficient = float(grading_coefficient)
        self.transit_time = float(transit_time)
        self.forward_bias_threshold = float(forward_bias_threshold)
        self._vt = self.emission_coefficient * THERMAL_VOLTAGE
        # Critical voltage above which the exponential is linearised.
        self._v_crit = self._vt * math.log(self._vt / (math.sqrt(2.0) * self.saturation_current))

    def is_nonlinear(self) -> bool:
        return True

    def is_nonlinear_dynamic(self) -> bool:
        # Charge storage is nonlinear only when the diode actually stores
        # charge; without it the dynamic stamps are empty (trivially linear).
        return self.junction_capacitance > 0.0 or self.transit_time > 0.0

    # ------------------------------------------------------------------ models
    def current_and_conductance(self, vd: float) -> tuple[float, float]:
        """Diode current and incremental conductance at junction voltage ``vd``."""
        i_s, vt = self.saturation_current, self._vt
        if vd <= self._v_crit:
            expv = math.exp(min(vd / vt, 700.0))
            current = i_s * (expv - 1.0)
            conductance = i_s * expv / vt
        else:
            # Linear extrapolation beyond v_crit keeps Newton steps finite.
            exp_crit = math.exp(self._v_crit / vt)
            g_crit = i_s * exp_crit / vt
            i_crit = i_s * (exp_crit - 1.0)
            current = i_crit + g_crit * (vd - self._v_crit)
            conductance = g_crit
        # A tiny parallel conductance avoids an exactly singular Jacobian when
        # the diode is strongly reverse biased.
        conductance += 1e-12
        current += 1e-12 * vd
        return current, conductance

    def charge_and_capacitance(self, vd: float) -> tuple[float, float]:
        """Stored charge and incremental capacitance at junction voltage ``vd``."""
        charge = 0.0
        capacitance = 0.0
        cj0 = self.junction_capacitance
        if cj0 > 0.0:
            vj = self.junction_potential
            m = self.grading_coefficient
            fc = 0.5
            v_lin = fc * vj
            if vd < v_lin:
                factor = (1.0 - vd / vj) ** (-m)
                capacitance += cj0 * factor
                charge += cj0 * vj / (1.0 - m) * (1.0 - (1.0 - vd / vj) ** (1.0 - m))
            else:
                # Linearised depletion capacitance above fc*Vj (SPICE style).
                f1 = cj0 * vj / (1.0 - m) * (1.0 - (1.0 - fc) ** (1.0 - m))
                c_lin = cj0 * (1.0 - fc) ** (-1.0 - m)
                capacitance += c_lin * (1.0 - fc * (1.0 + m) + m * vd / vj)
                charge += f1 + c_lin * (
                    (1.0 - fc * (1.0 + m)) * (vd - v_lin)
                    + 0.5 * m / vj * (vd * vd - v_lin * v_lin))
        if self.transit_time > 0.0:
            current, conductance = self.current_and_conductance(vd)
            charge += self.transit_time * current
            capacitance += self.transit_time * conductance
        return charge, capacitance

    # ---------------------------------------------------------------- stamping
    def stamp_static(self, v: np.ndarray, i_out: np.ndarray, g_out: np.ndarray) -> None:
        vd = self.branch_voltage(v)
        current, conductance = self.current_and_conductance(vd)
        self.stamp_current(i_out, current)
        self.stamp_conductance(g_out, conductance)

    def stamp_dynamic(self, v: np.ndarray, q_out: np.ndarray, c_out: np.ndarray) -> None:
        vd = self.branch_voltage(v)
        charge, capacitance = self.charge_and_capacitance(vd)
        if capacitance == 0.0 and charge == 0.0:
            return
        add_at(q_out, self.pos, charge)
        add_at(q_out, self.neg, -charge)
        add_jac(c_out, self.pos, self.pos, capacitance)
        add_jac(c_out, self.neg, self.neg, capacitance)
        add_jac(c_out, self.pos, self.neg, -capacitance)
        add_jac(c_out, self.neg, self.pos, -capacitance)
