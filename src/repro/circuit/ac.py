"""Small-signal AC analysis about an operating point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dc import dc_operating_point
from .mna import MNASystem

__all__ = ["ACResult", "ac_analysis", "frequency_grid"]


def frequency_grid(f_start: float, f_stop: float, points_per_decade: int = 10) -> np.ndarray:
    """Logarithmically spaced frequency grid (inclusive of both endpoints)."""
    if f_start <= 0 or f_stop <= f_start:
        raise ValueError("require 0 < f_start < f_stop")
    decades = np.log10(f_stop / f_start)
    n_points = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n_points)


@dataclass
class ACResult:
    """Small-signal transfer functions ``H(j 2 pi f)`` about a DC point.

    ``response`` has shape ``(n_freq, n_outputs, n_inputs)``.
    """

    frequencies: np.ndarray
    response: np.ndarray
    operating_point: np.ndarray

    def transfer(self, output: int = 0, input_: int = 0) -> np.ndarray:
        """One SISO transfer function as a complex 1-D array."""
        return self.response[:, output, input_]

    def gain_db(self, output: int = 0, input_: int = 0) -> np.ndarray:
        """Magnitude in dB of one SISO transfer function."""
        magnitude = np.abs(self.transfer(output, input_))
        return 20.0 * np.log10(np.maximum(magnitude, 1e-300))

    def phase_deg(self, output: int = 0, input_: int = 0, unwrap: bool = True) -> np.ndarray:
        """Phase in degrees (unwrapped by default)."""
        phase = np.angle(self.transfer(output, input_))
        if unwrap:
            phase = np.unwrap(phase)
        return np.degrees(phase)

    def dc_gain(self, output: int = 0, input_: int = 0) -> float:
        """Low-frequency gain (value at the first frequency point)."""
        return float(np.abs(self.transfer(output, input_)[0]))

    def bandwidth(self, output: int = 0, input_: int = 0) -> float:
        """-3 dB bandwidth relative to the low-frequency gain.

        Returns the last frequency if the response never drops 3 dB within
        the analysed span.
        """
        gain = np.abs(self.transfer(output, input_))
        threshold = gain[0] / np.sqrt(2.0)
        below = np.nonzero(gain < threshold)[0]
        if below.size == 0:
            return float(self.frequencies[-1])
        k = below[0]
        if k == 0:
            return float(self.frequencies[0])
        # Log-linear interpolation between the bracketing points.
        f_lo, f_hi = self.frequencies[k - 1], self.frequencies[k]
        g_lo, g_hi = gain[k - 1], gain[k]
        frac = (g_lo - threshold) / max(g_lo - g_hi, 1e-300)
        return float(f_lo * (f_hi / f_lo) ** frac)


def ac_analysis(system: MNASystem, frequencies: np.ndarray,
                assembly: str = "auto") -> ACResult:
    """Linearise the circuit about its DC point and sweep the frequency grid.

    The sweep solves batched right-hand sides: in dense mode all frequencies
    go through one LAPACK call, in sparse mode each frequency is factorised
    once for every input column.  ``assembly="legacy"`` restores the original
    per-frequency dense loop (and keeps the DC solve on the legacy path too,
    so circuits the compiled engine rejects remain analysable).
    """
    operating_point = dc_operating_point(
        system, assembly="legacy" if assembly == "legacy" else "auto").solution
    response = system.transfer_function(operating_point, frequencies,
                                        assembly=assembly)
    return ACResult(frequencies=np.asarray(frequencies, dtype=float),
                    response=response,
                    operating_point=operating_point)
