"""Modified nodal analysis (MNA) assembly.

The :class:`MNASystem` turns a :class:`repro.circuit.netlist.Circuit` into the
nonlinear descriptor system used throughout the paper (its eq. (1)):

.. math::

    \\frac{d}{dt} q(v) + i(v) = B\\,u(t) + b_{fixed}(t), \\qquad y = D^T v

with dense NumPy evaluation of ``i``, ``q`` and their Jacobians
``G = \\partial i/\\partial v`` and ``C = \\partial q/\\partial v``.  Those two
Jacobians, sampled along a transient trajectory, are exactly the snapshots the
Transfer Function Trajectory extraction consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import CircuitError
from .devices import Device
from .netlist import GROUND_NAMES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .netlist import Circuit

__all__ = ["MNASystem"]


class MNASystem:
    """Numerical MNA description of a circuit.

    Attributes
    ----------
    n_nodes / n_branches / n_unknowns:
        Sizes of the unknown vector: node voltages first, branch currents after.
    node_index:
        Mapping from node name to unknown index (ground maps to ``-1``).
    input_matrix / output_matrix:
        The constant incidence matrices ``B`` (``n x M_i``) and ``D``
        (``n x M_o``) of the descriptor system.
    """

    def __init__(self, circuit: "Circuit") -> None:
        self.circuit = circuit
        self.node_names: list[str] = circuit.node_names()
        self.node_index: dict[str, int] = {name: i for i, name in enumerate(self.node_names)}
        for ground in GROUND_NAMES:
            self.node_index[ground] = -1
        self.n_nodes = len(self.node_names)

        # Allocate branch unknowns and bind every device.
        branch_cursor = self.n_nodes
        self._branch_owner: list[str] = []
        for device in circuit.devices:
            device.bind(self.node_index, branch_cursor)
            branch_cursor += device.n_branch
            self._branch_owner.extend([device.name] * device.n_branch)
        self.n_branches = branch_cursor - self.n_nodes
        self.n_unknowns = branch_cursor

        self._devices: tuple[Device, ...] = circuit.devices
        self._nonlinear = tuple(d for d in self._devices if d.is_nonlinear())
        #: Devices whose type stamps an excitation, in device order (the
        #: others inherit the no-op ``Device.stamp_rhs``).
        self._rhs_devices = tuple(d for d in self._devices
                                  if type(d).stamp_rhs is not Device.stamp_rhs)
        self._input_sources = circuit.inputs
        if not self._input_sources:
            raise CircuitError(
                f"circuit {circuit.name!r} declares no input source; "
                "mark the signal source with is_input=True")

        self.input_matrix = self._build_input_matrix()
        self.output_matrix = self._build_output_matrix()
        self.output_names = [o.name for o in circuit.outputs]
        self.input_names = [d.name for d in self._input_sources]
        #: Lazily compiled evaluation engines, keyed by resolved storage mode.
        self._compiled: dict[bool, object] = {}

    # ----------------------------------------------------------------- helpers
    @property
    def n_inputs(self) -> int:
        return self.input_matrix.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.output_matrix.shape[1]

    def unknown_labels(self) -> list[str]:
        """Human-readable labels, ``v(node)`` then ``i(device)``."""
        labels = [f"v({name})" for name in self.node_names]
        labels.extend(f"i({name})" for name in self._branch_owner)
        return labels

    def _build_input_matrix(self) -> np.ndarray:
        columns = [src.input_incidence(self.n_unknowns) for src in self._input_sources]
        return np.column_stack(columns) if columns else np.zeros((self.n_unknowns, 0))

    def _build_output_matrix(self) -> np.ndarray:
        columns = []
        for output in self.circuit.outputs:
            column = np.zeros(self.n_unknowns)
            for node, sign in ((output.positive, 1.0), (output.negative, -1.0)):
                if node in GROUND_NAMES:
                    continue
                if node not in self.node_index:
                    raise CircuitError(
                        f"output {output.name!r} references unknown node {node!r}")
                column[self.node_index[node]] += sign
            columns.append(column)
        return np.column_stack(columns) if columns else np.zeros((self.n_unknowns, 0))

    # ------------------------------------------------------------ evaluations
    def zero_state(self) -> np.ndarray:
        return np.zeros(self.n_unknowns)

    def eval_static(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Static currents ``i(v)`` and conductance Jacobian ``G(v)``."""
        i_vec = np.zeros(self.n_unknowns)
        g_mat = np.zeros((self.n_unknowns, self.n_unknowns))
        for device in self._devices:
            device.stamp_static(v, i_vec, g_mat)
        return i_vec, g_mat

    def eval_dynamic(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Charges/fluxes ``q(v)`` and capacitance Jacobian ``C(v)``."""
        q_vec = np.zeros(self.n_unknowns)
        c_mat = np.zeros((self.n_unknowns, self.n_unknowns))
        for device in self._devices:
            device.stamp_dynamic(v, q_vec, c_mat)
        return q_vec, c_mat

    def source_vector(self, t: float) -> np.ndarray:
        """Excitation of the *non-input* sources at time ``t``."""
        b_vec = np.zeros(self.n_unknowns)
        for device in self._rhs_devices:
            device.stamp_rhs(t, b_vec)
        return b_vec

    def input_vector(self, t: float) -> np.ndarray:
        """Input signal values ``u(t)`` of the designated input sources."""
        return np.array([src.waveform(t) for src in self._input_sources])

    def excitation(self, t: float) -> np.ndarray:
        """Total right-hand-side excitation ``B u(t) + b_fixed(t)``."""
        return self.source_vector(t) + self.input_matrix @ self.input_vector(t)

    def output(self, v: np.ndarray) -> np.ndarray:
        """Outputs ``y = D^T v`` for a solution vector ``v``."""
        return self.output_matrix.T @ v

    def waveform_breakpoints(self, t_start: float, t_stop: float) -> np.ndarray:
        """Merged stimulus corner times of every source in ``(t_start, t_stop)``.

        Collects :meth:`Waveform.breakpoints
        <repro.circuit.waveforms.Waveform.breakpoints>` from all sources
        (input or not — a fixed supply ramp forces steps just like the signal
        input does) into one sorted unique array.  The interval end points
        are excluded: the integrator is already there.
        """
        from .waveforms import Waveform

        collected = []
        for device in self._devices:
            waveform = getattr(device, "waveform", None)
            if isinstance(waveform, Waveform):
                collected.append(waveform.breakpoints(t_start, t_stop))
        if not collected:
            return np.empty(0)
        merged = np.unique(np.concatenate(collected))
        return merged[(merged > t_start) & (merged < t_stop)]

    # ------------------------------------------------------------- compilation
    def compile(self, assembly: str = "auto"):
        """Compiled pattern-cached evaluator of this system (cached per mode).

        ``assembly`` is ``"auto"`` (sparse CSC storage above
        :data:`repro.circuit.assembly.SPARSE_THRESHOLD` unknowns, dense
        below), ``"dense"`` or ``"sparse"``.  See
        :class:`repro.circuit.assembly.CompiledMNA`.

        The compiled engine freezes the device *values* it probed (linear
        stamps, MOSFET parameters).  Mutating device attributes after an
        analysis has run therefore requires :meth:`invalidate_compiled` (or a
        fresh :meth:`Circuit.build <repro.circuit.netlist.Circuit.build>`);
        the legacy path re-stamps every evaluation and never caches.
        """
        from .assembly import SPARSE_THRESHOLD, CompiledMNA
        if assembly == "auto":
            sparse = self.n_unknowns >= SPARSE_THRESHOLD
        elif assembly in ("dense", "sparse"):
            sparse = assembly == "sparse"
        else:
            raise ValueError(f"cannot compile assembly mode {assembly!r}")
        engine = self._compiled.get(sparse)
        if engine is None:
            engine = CompiledMNA(self, sparse=sparse)
            self._compiled[sparse] = engine
        return engine

    def invalidate_compiled(self) -> None:
        """Drop cached compiled engines after mutating device parameters.

        Compiled engines bake in the device values seen at compile time; call
        this (or rebuild the circuit) before re-running analyses on a system
        whose devices were modified in place.
        """
        self._compiled.clear()

    # ------------------------------------------------------------- diagnostics
    def describe(self) -> str:
        return (f"MNA system for {self.circuit.name!r}: {self.n_nodes} node voltages, "
                f"{self.n_branches} branch currents, {self.n_inputs} input(s), "
                f"{self.n_outputs} output(s)")

    def transfer_function(self, v: np.ndarray, frequencies: Sequence[float] | np.ndarray,
                          assembly: str = "auto") -> np.ndarray:
        """Small-signal transfer functions about the point ``v``.

        Returns an array of shape ``(n_freq, n_outputs, n_inputs)`` containing
        ``D^T (G + s C)^{-1} B`` evaluated at ``s = j 2 pi f`` for every
        frequency ``f``, with :data:`~repro.circuit.dc.GMIN` added on every
        diagonal entry of ``G`` (the DC analysis adds it on the node rows
        only).  This is the elementary operation of the AC analysis (paper
        eq. (3)); the TFT extraction solves each snapshot's ``G + s C``
        without it.

        In ``"dense"``/small ``"auto"`` mode the whole frequency sweep is one
        batched LAPACK call; in sparse mode each frequency factorises
        ``G + s C`` once and solves all input columns together, and the
        per-frequency factorisations — which are independent of each other —
        run in contiguous frequency ranges on the process's usable cores
        (:func:`~repro.circuit.linalg.fan_out`; SuperLU releases the GIL
        inside the numerical factorisation).  Pass ``assembly="legacy"`` for the
        original per-frequency dense loop.

        A singular ``G + s C`` raises :class:`~repro.exceptions.
        SingularMatrixError` from every compiled mode (dense and sparse
        alike); only the legacy path keeps its historical
        ``numpy.linalg.LinAlgError``.
        """
        frequencies = np.asarray(frequencies, dtype=float).ravel()
        s_values = 2j * np.pi * frequencies
        result = np.empty((frequencies.size, self.n_outputs, self.n_inputs), dtype=complex)

        from .dc import GMIN            # dc.py imports this module

        if assembly == "legacy":
            _, g_mat = self.eval_static(v)
            _, c_mat = self.eval_dynamic(v)
            g_mat = g_mat + GMIN * np.eye(self.n_unknowns)
            for idx, s in enumerate(s_values):
                solved = np.linalg.solve(g_mat + s * c_mat, self.input_matrix)
                result[idx] = self.output_matrix.T @ solved
            return result

        engine = self.compile(assembly)
        _, g_op = engine.eval_static(v)
        _, c_op = engine.eval_dynamic(v)
        if engine.is_sparse:
            from .linalg import fan_out, solve_linear
            g_data = g_op.astype(complex, copy=True)
            engine.add_diag(g_data, GMIN, self.n_unknowns)
            b_cols = self.input_matrix.astype(complex)
            d_mat = self.output_matrix.T

            def solve_range(start: int, stop: int) -> None:
                for idx in range(start, stop):
                    matrix = engine.materialize(g_data + s_values[idx] * c_op)
                    result[idx] = d_mat @ solve_linear(matrix, b_cols)

            fan_out(solve_range, s_values.size)
            return result

        from ..exceptions import SingularMatrixError
        from .linalg import batched_transfer
        g_mat = np.array(g_op, copy=True)
        engine.add_diag(g_mat, GMIN, self.n_unknowns)
        try:
            return batched_transfer(g_mat, c_op, s_values,
                                    self.input_matrix, self.output_matrix)
        except np.linalg.LinAlgError as exc:
            # Same typed error as the sparse branch, so the exception a caller
            # must catch does not flip with the circuit size in "auto" mode.
            raise SingularMatrixError(
                "(G + sC) is singular at one of the swept frequencies") from exc
