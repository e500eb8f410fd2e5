"""The parallel Hammerstein model extracted by recursive vector fitting.

The extracted behavioural model (paper eq. (7), Figs. 2 and 4) consists of

* a *static path*: an analytical function ``F_0(x)`` of the state
  ``x = u(t)`` (the input, the paper's one-dimensional state estimator)
  whose derivative with respect to the input matches the instantaneous
  (s = 0 and direct feed-through) gain of the circuit along the trajectory;
* ``P`` parallel *Hammerstein branches*: each branch feeds a static nonlinear
  block ``f_p(x) = f_{p,0} + \\int r_p(x)\\,du`` into a first-order linear
  filter with the fixed frequency pole ``a_p``:

  .. math:: v_p = f_p(x(t)), \\qquad \\dot y_p = a_p\\,y_p + v_p

  Complex pole pairs are represented by a single complex branch whose
  contribution to the output is ``2\\,\\mathrm{Re}\\{y_p\\}`` (equivalent to
  the real 2x2 block of eqs. (12)-(14)).

The model is linear in its dynamics (fixed poles) and nonlinear only through
the static blocks — the decoupling of "nonlinear functionality" from the
"filtering function" that the paper emphasises.  Stability is guaranteed by
construction because every ``a_p`` lies in the left half plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import ModelError

__all__ = ["HammersteinBranch", "HammersteinModel", "ModelMetadata"]


@dataclass
class HammersteinBranch:
    """One branch of the parallel Hammerstein structure."""

    pole: complex
    residue_function: object           # r_p(x): PartialFractionFunction or a callable
    static_function: object            # f_p(x) = integral of r_p over the input
    is_complex_pair: bool

    def __post_init__(self) -> None:
        self.pole = complex(self.pole)
        if self.pole.real >= 0.0:
            raise ModelError(f"branch pole {self.pole} is not strictly stable")

    @property
    def order(self) -> int:
        """Number of real states this branch contributes (1 or 2)."""
        return 2 if self.is_complex_pair else 1

    def small_signal(self, states: np.ndarray, svals: np.ndarray) -> np.ndarray:
        """Small-signal contribution ``r_p(x)/(s-a_p)`` (+ conjugate for pairs).

        ``states`` has shape ``(K,)``; ``svals`` is a complex array of shape
        ``(L,)``.  Returns ``(K, L)``.
        """
        residues = _evaluate_state_function(self.residue_function, states)
        svals = np.asarray(svals, dtype=complex).ravel()
        term = residues[:, None] / (svals[None, :] - self.pole)
        if self.is_complex_pair:
            term = term + np.conj(residues)[:, None] / (svals[None, :] - np.conj(self.pole))
        return term

    def recurrence(self, dt: float) -> tuple[complex, complex, complex]:
        """Discrete-time recurrence coefficients at a fixed sample interval.

        Returns ``(E, W0, W1)`` such that the branch filter advances exactly
        (for piecewise-linear branch input ``v``) as

        .. math:: y_{n+1} = E\\,y_n + W_0\\,v_n + W_1\\,(v_{n+1} - v_n)

        This is the recurrence form consumed by the compiled runtime
        (:mod:`repro.runtime`), identical to the update used step-by-step in
        :func:`repro.rvf.timedomain.simulate_hammerstein`.
        """
        from .timedomain import phi1, phi2

        if dt <= 0.0:
            raise ModelError("recurrence sample interval dt must be positive")
        z = self.pole * dt
        return complex(np.exp(z)), complex(dt * phi1(z)), complex(dt * phi2(z))


@dataclass
class ModelMetadata:
    """Book-keeping attached to an extracted model (orders, errors, timing)."""

    n_frequency_poles: int = 0
    n_state_poles: int = 0
    frequency_fit_error: float = np.nan
    state_fit_error: float = np.nan
    hyperplane_rmse_db: float = np.nan
    build_time_seconds: float = np.nan
    error_bound: float = np.nan
    training_snapshots: int = 0
    split_static: bool = True
    notes: dict = field(default_factory=dict)


class HammersteinModel:
    """Analytical nonlinear behavioural model (SISO).

    Parameters
    ----------
    branches:
        The parallel Hammerstein branches (one per real pole or complex pair).
    gain_function:
        Instantaneous (memoryless) gain ``g_0(x)`` of the static path as an
        analytical function of the state ``x = u(t)``.
    static_function:
        Antiderivative of ``gain_function`` with the integration constant
        already fixed from the DC solution: ``F_0(x_dc) = y_dc``.
    dc_input / dc_output:
        The circuit's DC operating point used to fix integration constants.
    """

    def __init__(self, branches: Sequence[HammersteinBranch],
                 gain_function: object, static_function: object,
                 dc_input: float, dc_output: float,
                 input_name: str = "u", output_name: str = "y",
                 metadata: ModelMetadata | None = None) -> None:
        self.branches = list(branches)
        self.gain_function = gain_function
        self.static_function = static_function
        self.dc_input = float(dc_input)
        self.dc_output = float(dc_output)
        self.input_name = input_name
        self.output_name = output_name
        self.metadata = metadata or ModelMetadata()

    # ------------------------------------------------------------------ shape
    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def frequency_poles(self) -> np.ndarray:
        """All frequency poles including conjugates (as in the paper's P)."""
        poles: list[complex] = []
        for branch in self.branches:
            poles.append(branch.pole)
            if branch.is_complex_pair:
                poles.append(np.conj(branch.pole))
        return np.array(poles, dtype=complex)

    @property
    def dynamic_order(self) -> int:
        """Number of real states of the dynamic part."""
        return sum(branch.order for branch in self.branches)

    def is_stable(self) -> bool:
        """Always true by construction; kept as an explicit, testable check."""
        return all(branch.pole.real < 0.0 for branch in self.branches)

    # ------------------------------------------------------------ evaluations
    def static_output(self, states: np.ndarray) -> np.ndarray:
        """Static path output ``F_0(x)``, shape ``(K,)``."""
        return _evaluate_state_function(self.static_function, states).real

    def transfer_function(self, states: np.ndarray, frequencies: np.ndarray) -> np.ndarray:
        """Model TFT surface ``T(x, s)`` on a state x frequency grid.

        This is the quantity compared against the circuit's TFT data in the
        paper's Fig. 7; shape ``(K, L)``.
        """
        svals = 2j * np.pi * np.asarray(frequencies, dtype=float).ravel()
        gain = _evaluate_state_function(self.gain_function, states)
        surface = np.repeat(gain[:, None], svals.size, axis=1).astype(complex)
        for branch in self.branches:
            surface = surface + branch.small_signal(states, svals)
        return surface

    def dc_transfer(self, states: np.ndarray) -> np.ndarray:
        """Model's instantaneous DC gain ``T(x, 0)`` along the state axis."""
        return self.transfer_function(states, np.array([0.0]))[:, 0].real

    def simulate(self, times: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Time-domain response to a sampled input waveform.

        Delegates to :func:`repro.rvf.timedomain.simulate_hammerstein`.
        """
        from .timedomain import simulate_hammerstein

        return simulate_hammerstein(self, times, inputs).outputs

    def compile(self, dt: float, input_range: tuple[float, float],
                table_size: int | None = None):
        """Compile the model into a batch-evaluable discrete-time kernel.

        Delegates to :func:`repro.runtime.compile_model` (whose default
        ``table_size`` applies when none is given); see there for the
        semantics of the sampled static tables and the branch recurrences.
        """
        from ..runtime import compile_model
        from ..runtime.compiled import DEFAULT_TABLE_SIZE

        return compile_model(self, dt=dt, input_range=input_range,
                             table_size=DEFAULT_TABLE_SIZE
                             if table_size is None else table_size)

    # ---------------------------------------------------------------- export
    def to_equations(self, precision: int = 6) -> str:
        """Analytical differential equations as readable text."""
        from .export import model_equations

        return model_equations(self, precision=precision)

    def describe(self) -> str:
        return (f"Hammerstein model: {self.n_branches} branches "
                f"({self.frequency_poles.size} frequency poles, dynamic order "
                f"{self.dynamic_order}), stable={self.is_stable()}")


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #

def _evaluate_state_function(function, states: np.ndarray) -> np.ndarray:
    """Evaluate a residue/static function on a batch of states -> (K,) complex."""
    return np.atleast_1d(np.asarray(function(np.asarray(states, dtype=float)),
                                    dtype=complex))
