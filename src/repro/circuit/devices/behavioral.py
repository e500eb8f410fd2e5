"""Behavioural nonlinear element with a closed-form constitutive relation.

The element is used by the test-suite and the smaller example circuits:
because its I-V relation (and hence its small-signal conductance) is known
analytically, the Jacobian snapshots and transfer function trajectories
extracted from circuits built out of it can be checked against hand-derived
expressions.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import CircuitError
from .base import TwoTerminal

__all__ = ["CubicConductance"]


class CubicConductance(TwoTerminal):
    """Saturating conductance ``i = g1 * v - g3 * v**3`` (useful up to |v| < sqrt(g1/3g3)).

    This mimics the compressive large-signal behaviour of a differential pair
    in a compact two-terminal form, which makes it a convenient stand-in for
    "strongly nonlinear saturation" in unit tests.
    """

    def __init__(self, name: str, node_pos: str, node_neg: str,
                 g1: float, g3: float) -> None:
        super().__init__(name, node_pos, node_neg)
        if g1 <= 0.0 or g3 < 0.0:
            raise CircuitError(f"{name}: require g1 > 0 and g3 >= 0")
        self.g1 = float(g1)
        self.g3 = float(g3)

    def is_nonlinear(self) -> bool:
        return self.g3 > 0.0

    def is_nonlinear_dynamic(self) -> bool:
        return False  # no dynamic stamps

    def stamp_static(self, v: np.ndarray, i_out: np.ndarray, g_out: np.ndarray) -> None:
        vd = self.branch_voltage(v)
        current = self.g1 * vd - self.g3 * vd ** 3
        conductance = self.g1 - 3.0 * self.g3 * vd ** 2
        self.stamp_current(i_out, current)
        self.stamp_conductance(g_out, conductance)

