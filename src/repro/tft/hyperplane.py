"""The Transfer Function Trajectory dataset (the "TFT hyperplane").

A :class:`TFTDataset` holds the state-dependent transfer functions
``H^(k)_{lm}(s)`` sampled on a grid of frequencies for every captured circuit
state ``k``, together with its state ``x^(k) = u(t_k)``: the input at the
snapshot's time, the one-dimensional state estimator of the paper's eq. (4)
that its output-buffer example uses (Fig. 6).  It is the object plotted in
Fig. 6 and the input to the Recursive Vector Fitting model extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ReproError

__all__ = ["TFTDataset"]


def _check_shape(name: str, array: np.ndarray, expected: tuple[int, ...]) -> None:
    if array.shape != expected:
        raise ReproError(f"{name} has shape {array.shape}; the response needs {expected}")


@dataclass
class TFTDataset:
    """State x frequency samples of the circuit's small-signal response.

    Attributes
    ----------
    frequencies:
        Frequency grid in Hz, shape ``(L,)``.
    states:
        State ``x^(k) = u(t_k)`` of every sample, shape ``(K,)``.
    response:
        Complex transfer functions ``H^(k)(s_l)``, shape ``(K, L, M_o, M_i)``.
    dc_response:
        Instantaneous DC (``s = 0``) transfer functions, shape ``(K, M_o, M_i)``.
    times:
        Time stamps of the originating snapshots, shape ``(K,)`` (optional).
    outputs:
        Circuit outputs at the snapshots, shape ``(K, M_o)``, or ``(K,)``
        for one output (optional).

    A field whose shape does not fit ``K``, ``M_o`` and ``M_i`` of the
    response raises :class:`~repro.exceptions.ReproError` naming it.
    """

    frequencies: np.ndarray
    states: np.ndarray
    response: np.ndarray
    dc_response: np.ndarray
    times: np.ndarray | None = None
    outputs: np.ndarray | None = None
    input_names: list[str] = field(default_factory=list)
    output_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.frequencies = np.asarray(self.frequencies, dtype=float).ravel()
        self.states = np.asarray(self.states, dtype=float).ravel()
        self.response = np.asarray(self.response, dtype=complex)
        if self.response.ndim != 4:
            raise ReproError(f"response has shape {self.response.shape}; expected "
                             "(K, L, M_o, M_i)")
        k, l, n_outputs, n_inputs = self.response.shape
        if self.frequencies.size != l:
            raise ReproError(
                f"response has {l} frequency samples but grid has {self.frequencies.size}")
        if self.states.size != k:
            raise ReproError(
                f"response has {k} states but {self.states.size} state samples given")
        self.dc_response = np.asarray(self.dc_response, dtype=complex)
        _check_shape("dc_response", self.dc_response, (k, n_outputs, n_inputs))
        if self.times is not None:
            self.times = np.asarray(self.times, dtype=float)
            _check_shape("times", self.times, (k,))
        if self.outputs is not None:
            self.outputs = np.asarray(self.outputs, dtype=float)
            if self.outputs.ndim == 1:
                self.outputs = self.outputs[:, None]
            _check_shape("outputs", self.outputs, (k, n_outputs))

    # ------------------------------------------------------------------ shape
    @property
    def n_states(self) -> int:
        return int(self.response.shape[0])

    @property
    def n_frequencies(self) -> int:
        return int(self.response.shape[1])

    @property
    def n_outputs(self) -> int:
        return int(self.response.shape[2])

    @property
    def n_inputs(self) -> int:
        return int(self.response.shape[3])

    def state_axis(self) -> np.ndarray:
        """The state ``u(t_k)`` of every sample, shape ``(K,)``."""
        return self.states

    # ------------------------------------------------------------- SISO views
    def siso_response(self, output: int = 0, input_: int = 0) -> np.ndarray:
        """Full response for one input/output pair, shape ``(K, L)``."""
        return self.response[:, :, output, input_]

    def siso_dc(self, output: int = 0, input_: int = 0) -> np.ndarray:
        """Instantaneous DC gains along the trajectory, shape ``(K,)``."""
        return self.dc_response[:, output, input_]

    def dynamic_response(self, output: int = 0, input_: int = 0) -> np.ndarray:
        """Dynamic part ``H(s) - H(0)`` (paper's H-bar), shape ``(K, L)``."""
        return self.siso_response(output, input_) - self.siso_dc(output, input_)[:, None]

    def gain_db(self, output: int = 0, input_: int = 0) -> np.ndarray:
        """Gain surface in dB, shape ``(K, L)`` (the paper's Fig. 6 top)."""
        magnitude = np.abs(self.siso_response(output, input_))
        return 20.0 * np.log10(np.maximum(magnitude, 1e-300))

    def phase_deg(self, output: int = 0, input_: int = 0, unwrap: bool = True) -> np.ndarray:
        """Phase surface in degrees, unwrapped along the frequency axis."""
        phase = np.angle(self.siso_response(output, input_))
        if unwrap:
            phase = np.unwrap(phase, axis=1)
        return np.degrees(phase)

    # ------------------------------------------------------------ manipulation
    def sorted_by_state(self) -> "TFTDataset":
        """Copy with samples ordered by state (for plotting)."""
        order = np.argsort(self.states, kind="stable")
        return TFTDataset(
            frequencies=self.frequencies.copy(),
            states=self.states[order],
            response=self.response[order],
            dc_response=self.dc_response[order],
            times=None if self.times is None else self.times[order],
            outputs=None if self.outputs is None else self.outputs[order],
            input_names=list(self.input_names),
            output_names=list(self.output_names),
        )

    def describe(self) -> str:
        lo, hi = self.state_axis().min(), self.state_axis().max()
        return (f"TFT dataset: {self.n_states} states x {self.n_frequencies} frequencies, "
                f"{self.n_outputs} output(s) x {self.n_inputs} input(s), "
                f"state axis [{lo:.3f}, {hi:.3f}], "
                f"frequency span [{self.frequencies[0]:.3g}, {self.frequencies[-1]:.3g}] Hz")
