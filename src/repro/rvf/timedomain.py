"""Time-domain simulation of extracted Hammerstein models.

The extracted model is a set of decoupled, first-order (complex) linear
filters driven by static nonlinear functions of the input.  Because the
filters are linear with *fixed* poles, each time step can use the exact
exponential update for a piecewise-linear (first-order-hold) input:

.. math::

    y_{n+1} = e^{a\\Delta} y_n + v_n\\,\\Delta\\,\\varphi_1(a\\Delta)
              + (v_{n+1}-v_n)\\,\\Delta\\,\\varphi_2(a\\Delta)

with :math:`\\varphi_1(z) = (e^z-1)/z` and
:math:`\\varphi_2(z) = (e^z-1-z)/z^2`.  This update is A-stable and exact for
piecewise-linear branch inputs, so the extracted model can be evaluated with
much larger steps than the transistor-level circuit — which is where the
paper's reported speed-up comes from.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from ..exceptions import ModelError

__all__ = ["ModelSimulationResult", "simulate_hammerstein", "phi1", "phi2"]


@dataclass
class ModelSimulationResult:
    """Output of a Hammerstein-model transient."""

    times: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    static_part: np.ndarray
    branch_outputs: np.ndarray     # (n_branches, K) real contributions
    wall_time: float

    @property
    def n_points(self) -> int:
        return int(self.times.size)


def phi1(z: np.ndarray | complex) -> np.ndarray | complex:
    """(exp(z) - 1) / z with a series fallback near z = 0.

    Public because the compiled runtime (:mod:`repro.runtime`) folds the same
    exponential-integrator weights into its per-branch recurrences; the two
    evaluation paths must agree to machine precision.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-6
    safe = np.where(small, 1.0, z)
    result = np.where(small, 1.0 + z / 2.0 + z * z / 6.0, (np.exp(safe) - 1.0) / safe)
    return result if result.ndim else complex(result)


def phi2(z: np.ndarray | complex) -> np.ndarray | complex:
    """(exp(z) - 1 - z) / z**2 with a series fallback near z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    result = np.where(small, 0.5 + z / 6.0 + z * z / 24.0,
                      (np.exp(safe) - 1.0 - safe) / (safe * safe))
    return result if result.ndim else complex(result)


def simulate_hammerstein(model, times: np.ndarray, inputs: np.ndarray) -> ModelSimulationResult:
    """Simulate an extracted model on a sampled input waveform.

    Parameters
    ----------
    model:
        :class:`repro.rvf.hammerstein.HammersteinModel`.
    times:
        Monotonically increasing sample times, shape ``(K,)``.
    inputs:
        Input samples ``u(t_k)``, shape ``(K,)`` — or a callable evaluated on
        ``times``.
    """
    wall_start = _time.perf_counter()
    times = np.asarray(times, dtype=float).ravel()
    if callable(inputs):
        inputs = np.array([inputs(t) for t in times], dtype=float)
    inputs = np.asarray(inputs, dtype=float).ravel()
    if inputs.size != times.size:
        raise ModelError("times and inputs must have the same length")
    if times.size < 2:
        raise ModelError("need at least two time points")
    if np.any(np.diff(times) <= 0):
        raise ModelError("times must be strictly increasing")

    # The state is the input: the static path is evaluated on it vectorised.
    static_part = model.static_output(inputs)

    n_points = times.size
    branch_outputs = np.zeros((model.n_branches, n_points))
    dt = np.diff(times)
    uniform = bool(np.allclose(dt, dt[0], rtol=1e-9, atol=0.0))

    from .hammerstein import _evaluate_state_function

    for b_idx, branch in enumerate(model.branches):
        v = _evaluate_state_function(branch.static_function, inputs)
        pole = branch.pole
        # Equilibrium initial condition: 0 = a*y + v(0).
        y = -v[0] / pole
        outputs_c = np.empty(n_points, dtype=complex)
        outputs_c[0] = y
        if uniform:
            z = pole * dt[0]
            expz = np.exp(z)
            w0 = dt[0] * phi1(z)
            w1 = dt[0] * phi2(z)
            for n in range(n_points - 1):
                y = expz * y + v[n] * w0 + (v[n + 1] - v[n]) * w1
                outputs_c[n + 1] = y
        else:
            for n in range(n_points - 1):
                z = pole * dt[n]
                y = np.exp(z) * y + v[n] * dt[n] * phi1(z) \
                    + (v[n + 1] - v[n]) * dt[n] * phi2(z)
                outputs_c[n + 1] = y
        if branch.is_complex_pair:
            branch_outputs[b_idx] = 2.0 * outputs_c.real
        else:
            branch_outputs[b_idx] = outputs_c.real

    outputs = static_part + branch_outputs.sum(axis=0)
    return ModelSimulationResult(
        times=times,
        inputs=inputs,
        outputs=outputs,
        static_part=static_part,
        branch_outputs=branch_outputs,
        wall_time=_time.perf_counter() - wall_start,
    )
