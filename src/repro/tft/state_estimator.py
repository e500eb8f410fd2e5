"""Low-dimensional state estimators built from delayed input samples.

The TFT method maps each sampled circuit state ``k`` onto a low-dimensional
vector ``x(t_k)`` composed of the input and delayed copies of the input
(paper eq. (4)):

.. math:: k \\;\\rightarrow\\; x(t) = (u(t), u(t-\\Delta_1), \\ldots, u(t-\\Delta_{q-1}))

For the output-buffer demonstrator a single dimension ``x = u(t)`` is enough
(the paper's Fig. 6 uses exactly that), but the estimator supports an
arbitrary number of delays so MIMO / higher-order embeddings can be built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ReproError

__all__ = ["StateEstimator"]


@dataclass
class StateEstimator:
    """Delayed-input embedding ``x(t) = (u(t), u(t - delays[0]), ...)``.

    ``delays`` is the tuple of *additional* delays; the undelayed input is
    always the first coordinate, so ``dimension == len(delays) + 1``.
    ``input_index`` selects which circuit input is embedded (SISO circuits
    have a single input).
    """

    delays: tuple[float, ...] = ()
    input_index: int = 0

    def __post_init__(self) -> None:
        delays = tuple(float(d) for d in self.delays)
        if any(d <= 0 for d in delays):
            raise ReproError("state-estimator delays must be positive")
        self.delays = tuple(sorted(delays))

    @property
    def dimension(self) -> int:
        """Dimension ``q`` of the state estimator."""
        return len(self.delays) + 1

    def embed(self, times: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Embed a sampled input waveform; returns ``(K, q)``.

        ``inputs`` may be 1-D (one input) or 2-D ``(K, M_i)``; delayed values
        are obtained by linear interpolation of the sampled waveform, and
        times before the start of the record clamp to the first sample
        (the circuit is assumed to sit at its DC point before ``t=0``).
        """
        times = np.asarray(times, dtype=float).ravel()
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim == 2:
            inputs = inputs[:, self.input_index]
        if times.size != inputs.size:
            raise ReproError("times and inputs must have the same length")
        columns = [inputs]
        for delay in self.delays:
            delayed_times = np.clip(times - delay, times[0], times[-1])
            columns.append(np.interp(delayed_times, times, inputs))
        return np.column_stack(columns)

    def embed_snapshot_trajectory(self, trajectory) -> np.ndarray:
        """Embed the inputs recorded in a :class:`SnapshotTrajectory`."""
        return self.embed(trajectory.times, trajectory.inputs())

