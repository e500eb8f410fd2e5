"""Compiled MNA assembly: pattern-cached sparse/dense Jacobian evaluation.

The legacy evaluation path (:meth:`repro.circuit.mna.MNASystem.eval_static` /
``eval_dynamic``) re-stamps *every* device into freshly zeroed dense matrices
on every Newton iteration.  Profiling shows that for realistic circuits this
per-device Python stamping — not the linear solve — dominates the transient
wall time.  :class:`CompiledMNA` removes that cost with three ideas:

1. **Linear stamps are compiled once.**  Devices whose stamps do not depend on
   the solution (resistors, capacitors, sources, inductors, controlled
   sources, the constant gate capacitances of the square-law MOSFET, ...)
   are probed a single time.  Their Jacobian contribution becomes a constant
   matrix and their current/charge contribution the affine map
   ``i_lin(v) = i(0) + G_lin v``.

2. **Square-law MOSFETs and Shockley diodes are evaluated vectorised.**
   All standard MOSFET (diode) instances of a circuit are grouped and their
   drain currents, ``gm`` and ``gds`` (junction currents and conductances)
   computed with NumPy array math in one pass, then scattered into the
   Jacobian through precomputed index arrays.

3. **One shared sparsity pattern.**  In sparse mode every matrix (``G``,
   ``C`` and any combination ``G + a C``) lives on a single CSC pattern that
   also contains the full diagonal, so Jacobian combination is plain vector
   arithmetic on the CSC ``data`` array, and every matrix the LU factor cache
   (:class:`repro.circuit.linalg.FactorizationCache`) compares has the same
   pattern.

Small systems fall back to dense arrays (same compiled split, no CSC
indirection) because BLAS beats sparse overhead below a few dozen unknowns.

The compiled engine asserts its own correctness at build time by comparing a
full evaluation against the legacy dense path at a non-trivial test point.

Contract: a device whose :meth:`~repro.circuit.devices.base.Device.
is_nonlinear_static` (resp. ``is_nonlinear_dynamic``) returns ``False`` must
have affine static (resp. dynamic) stamps — constant Jacobian entries and
currents/charges of the form ``i(0) + J v``.  All built-in devices satisfy
this; the compile-time verification catches violations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.sparse as _sp

from ..exceptions import CircuitError
from .devices import Device
from .devices.diode import Diode
from .devices.mosfet import MOSFET

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .mna import MNASystem

__all__ = ["CompiledMNA", "LegacyEngine", "select_engine", "SPARSE_THRESHOLD"]

#: Systems with at least this many unknowns use the sparse CSC representation
#: in ``assembly="auto"`` mode; smaller systems use compiled dense arrays.
SPARSE_THRESHOLD = 64

#: Assembly mode names accepted by the analyses.
ASSEMBLY_MODES = ("auto", "dense", "sparse", "legacy")


class _TripletRecorder:
    """Array-like stamping target that records ``(row, col, value)`` triplets.

    Devices stamp Jacobians through ``matrix[row, col] += value`` (see
    :func:`repro.circuit.devices.base.add_jac`), which Python evaluates as a
    ``__getitem__`` followed by a ``__setitem__``.  Returning ``0.0`` from
    ``__getitem__`` therefore makes each in-place addition arrive here as one
    triplet; duplicate coordinates are summed when the pattern is built.
    """

    __slots__ = ("rows", "cols", "vals")

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def __getitem__(self, key) -> float:
        return 0.0

    def __setitem__(self, key, value) -> None:
        self.rows.append(key[0])
        self.cols.append(key[1])
        self.vals.append(value)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.asarray(self.rows, dtype=np.intp),
                np.asarray(self.cols, dtype=np.intp),
                np.asarray(self.vals, dtype=float))


def _record_stamps(devices: Sequence[Device], v: np.ndarray, n: int,
                   dynamic: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stamp ``devices`` at ``v`` into a vector and a triplet recorder."""
    vec = np.zeros(n)
    recorder = _TripletRecorder()
    for device in devices:
        if dynamic:
            device.stamp_dynamic(v, vec, recorder)
        else:
            device.stamp_static(v, vec, recorder)
    rows, cols, vals = recorder.arrays()
    return vec, rows, cols, vals


def _scatter_add(target: np.ndarray, positions: np.ndarray, values: np.ndarray,
                 per_shape: dict) -> None:
    """``np.add.at`` into the last axis of ``target``, one row at a time.

    ``target`` is ``(width,)`` or a C-contiguous ``(S, width)`` stack and
    ``values`` has ``positions.size`` entries per row.  A stack is scattered
    through its flat view with per-row offsets, so every row accumulates its
    entries in the same order as a 1-D call on that row (same bits).  The
    offset indices are kept in ``per_shape``, a dict owned by the object
    that owns ``positions``.
    """
    if target.ndim == 1:
        np.add.at(target, positions, values)
        return
    key = (id(positions), target.shape)
    index = per_shape.get(key)
    if index is None:
        width = target.shape[-1]
        index = per_shape[key] = (np.arange(0, target.size, width)[:, None]
                                  + positions).reshape(-1)
    np.add.at(target.reshape(-1), index, values.reshape(-1))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _vectorizable_mosfet(device: Device) -> bool:
    """Standard square-law MOSFETs whose static stamps we can batch."""
    return (isinstance(device, MOSFET)
            and type(device).stamp_static is MOSFET.stamp_static
            and type(device).drain_current is MOSFET.drain_current
            and type(device)._forward_current is MOSFET._forward_current)


class _MOSFETGroup:
    """Vectorised static evaluation of a batch of square-law MOSFETs.

    Reproduces :meth:`MOSFET.stamp_static` (including the reverse-operation
    drain/source swap) with array math.  Ground terminals are mapped to a
    ghost slot ``n`` so gathers and scatters need no masking; the ghost slot
    of the current vector is discarded afterwards.
    """

    #: Jacobian stamp table of ``MOSFET.stamp_static``: (row key, col key,
    #: block of the ``(..., 6 * m)`` value array).
    _STAMPS = (("d", "g", 0), ("d", "d", 1), ("d", "s", 2),
               ("s", "g", 3), ("s", "d", 4), ("s", "s", 5))

    def __init__(self, devices: Sequence[MOSFET], n: int) -> None:
        self.devices = tuple(devices)
        self.n = n
        idx = {"d": [], "g": [], "s": []}
        for dev in devices:
            d, g, s, _b = dev.node_index
            idx["d"].append(d if d >= 0 else n)
            idx["g"].append(g if g >= 0 else n)
            idx["s"].append(s if s >= 0 else n)
        self._d = np.asarray(idx["d"], dtype=np.intp)
        self._g = np.asarray(idx["g"], dtype=np.intp)
        self._s = np.asarray(idx["s"], dtype=np.intp)
        self._sign = np.asarray([float(dev.polarity) for dev in devices])
        self._gd_ss = np.concatenate((self._g, self._d, self._s, self._s))
        self._sign2 = np.concatenate((self._sign, self._sign))
        self._beta = np.asarray([dev.params.beta for dev in devices])
        self._vto = np.asarray([dev.params.vto for dev in devices])
        self._lam = np.asarray([dev.params.lam for dev in devices])
        self._delta = np.asarray([dev.params.smoothing for dev in devices])
        self._four_delta2 = 4.0 * self._delta * self._delta
        self._per_shape: dict = {}

    # ------------------------------------------------------------- structure
    def jacobian_entries(self) -> list[tuple[int, int, int, int]]:
        """Non-ground Jacobian stamp slots as ``(row, col, device, kind)``."""
        entries = []
        for k, dev in enumerate(self.devices):
            d, g, s, _b = dev.node_index
            nodes = {"d": d, "g": g, "s": s}
            for row_key, col_key, kind in self._STAMPS:
                row, col = nodes[row_key], nodes[col_key]
                if row >= 0 and col >= 0:
                    entries.append((row, col, k, kind))
        return entries

    # ------------------------------------------------------------ evaluation
    def currents_and_conductances(self, v_ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Terminal currents and the ``(..., 6 * m)`` Jacobian values.

        ``v_ext`` is the solution vector (or a stack of them) extended with a
        trailing zero for the ghost (ground) slot.  The returned current array
        is the per-device physical drain current with the polarity sign
        applied; the values hold one block of ``m`` per stamp kind.
        """
        m = self._sign.size
        # Gate and drain voltages minus the source voltage, in one pass.
        terminals = v_ext.take(self._gd_ss, axis=-1)
        controls = (terminals[..., :2 * m] - terminals[..., 2 * m:]) * self._sign2
        vgs, vds = controls[..., :m], controls[..., m:]
        sign = self._sign
        reverse = vds < 0.0
        vgs_f = np.where(reverse, vgs - vds, vgs)
        vds_f = np.abs(vds)

        delta = self._delta
        x = vgs_f - self._vto
        root = np.sqrt(x * x + self._four_delta2)
        vov = 0.5 * (x + root)
        dvov = 0.5 * (1.0 + x / root)
        vdsat = np.maximum(vov, delta)
        u = vds_f / vdsat
        tanh_u = np.tanh(u)
        sech2 = 1.0 - tanh_u * tanh_u
        vds_eff = vdsat * tanh_u
        dveff_dvds = sech2
        dveff_dvdsat = tanh_u - u * sech2
        dvdsat_dvgs = np.where(vov > delta, dvov, 0.0)

        f = (vov - 0.5 * vds_eff) * vds_eff
        df_dvdseff = vov - vds_eff
        df_dvov = vds_eff

        clm = 1.0 + self._lam * vds_f
        beta = self._beta
        i_f = beta * f * clm
        gm_f = beta * (df_dvov * dvov + df_dvdseff * dveff_dvdsat * dvdsat_dvgs) * clm
        gds_f = beta * df_dvdseff * dveff_dvds * clm + beta * f * self._lam

        i_d = np.where(reverse, -i_f, i_f)
        gm = np.where(reverse, -gm_f, gm_f)
        gds = np.where(reverse, gm_f + gds_f, gds_f)

        current = sign * i_d
        gm_gds = gm + gds
        values = np.concatenate((gm, gds, -gm_gds, -gm, -gds, gm_gds), axis=-1)
        return current, values

    def scatter_currents(self, i_ext: np.ndarray, current: np.ndarray) -> None:
        _scatter_add(i_ext, self._d, current, self._per_shape)
        _scatter_add(i_ext, self._s, -current, self._per_shape)


def _vectorizable_diode(device: Device) -> bool:
    """Standard Shockley diodes whose static stamps we can batch."""
    return (isinstance(device, Diode)
            and type(device).stamp_static is Diode.stamp_static
            and type(device).current_and_conductance is Diode.current_and_conductance)


class _DiodeGroup:
    """Vectorised static evaluation of a batch of Shockley diodes.

    Reproduces :meth:`Diode.current_and_conductance` (exponential region,
    linearised extrapolation above ``v_crit`` and the tiny parallel
    conductance) with array math, exactly as :class:`_MOSFETGroup` does for
    the square-law MOSFET.  The nonlinear *dynamic* stamps (junction/
    diffusion charge) stay on the generic per-device path — they are absent
    for many diodes and far off the static Newton hot path.
    """

    #: Jacobian stamp table: (row key, col key, block of the ``(..., 2 * m)``
    #: value array) — +g on the diagonal slots, -g off-diagonal.
    _STAMPS = (("p", "p", 0), ("n", "n", 0), ("p", "n", 1), ("n", "p", 1))

    def __init__(self, devices: Sequence[Diode], n: int) -> None:
        self.devices = tuple(devices)
        self.n = n
        self._pos = np.asarray([d.pos if d.pos >= 0 else n for d in devices],
                               dtype=np.intp)
        self._neg = np.asarray([d.neg if d.neg >= 0 else n for d in devices],
                               dtype=np.intp)
        self._i_s = np.asarray([d.saturation_current for d in devices])
        self._vt = np.asarray([d._vt for d in devices])
        self._v_crit = np.asarray([d._v_crit for d in devices])
        exp_crit = np.exp(self._v_crit / self._vt) if devices else np.zeros(0)
        self._g_crit = self._i_s * exp_crit / self._vt
        self._i_crit = self._i_s * (exp_crit - 1.0)
        self._per_shape: dict = {}

    # ------------------------------------------------------------- structure
    def jacobian_entries(self) -> list[tuple[int, int, int, int]]:
        """Non-ground Jacobian stamp slots as ``(row, col, device, kind)``."""
        entries = []
        for k, dev in enumerate(self.devices):
            nodes = {"p": dev.pos, "n": dev.neg}
            for row_key, col_key, kind in self._STAMPS:
                row, col = nodes[row_key], nodes[col_key]
                if row >= 0 and col >= 0:
                    entries.append((row, col, k, kind))
        return entries

    # ------------------------------------------------------------ evaluation
    def currents_and_conductances(self, v_ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Diode currents and the ``(..., 2 * m)`` Jacobian values."""
        vd = v_ext.take(self._pos, axis=-1) - v_ext.take(self._neg, axis=-1)
        expv = np.exp(np.minimum(vd / self._vt, 700.0))
        below = vd <= self._v_crit
        current = np.where(below, self._i_s * (expv - 1.0),
                           self._i_crit + self._g_crit * (vd - self._v_crit))
        conductance = np.where(below, self._i_s * expv / self._vt, self._g_crit)
        # Same regularisation as the scalar model: a tiny parallel conductance
        # keeps strongly reverse-biased diodes off an exactly singular Jacobian.
        conductance = conductance + 1e-12
        current = current + 1e-12 * vd
        values = np.concatenate((conductance, -conductance), axis=-1)
        return current, values

    def scatter_currents(self, i_ext: np.ndarray, current: np.ndarray) -> None:
        _scatter_add(i_ext, self._pos, current, self._per_shape)
        _scatter_add(i_ext, self._neg, -current, self._per_shape)


class CompiledMNA:
    """Pattern-cached evaluator of one :class:`MNASystem`.

    The public interface (shared with :class:`LegacyEngine`) deals in opaque
    *matrix operands*: dense ``(n, n)`` arrays in dense mode, CSC ``data``
    vectors on the shared pattern in sparse mode.  Callers combine operands
    with :meth:`combine`, regularise with :meth:`add_diag` and turn them into
    a solvable/storable matrix with :meth:`materialize`.  Operands returned
    by the evaluation methods must be treated as read-only.

    The evaluation methods also take a stack ``(S, n)`` of states of this
    circuit and return operands with the same leading axis; every row is
    bitwise what a 1-D call on that row returns, which is what lets the
    transient analysis integrate a family of stimuli in one Newton loop.
    """

    def __init__(self, system: "MNASystem", sparse: bool | None = None,
                 verify: bool = True) -> None:
        self.system = system
        self.n_unknowns = system.n_unknowns
        self.n_nodes = system.n_nodes
        if sparse is None:
            sparse = self.n_unknowns >= SPARSE_THRESHOLD
        self.is_sparse = bool(sparse)

        devices = list(system.circuit.devices)
        self._lin_static = [d for d in devices if not d.is_nonlinear_static()]
        nl_static = [d for d in devices if d.is_nonlinear_static()]
        self._mosfets = _MOSFETGroup([d for d in nl_static if _vectorizable_mosfet(d)],
                                     self.n_unknowns)
        self._diodes = _DiodeGroup([d for d in nl_static if _vectorizable_diode(d)],
                                   self.n_unknowns)
        self._nl_static = [d for d in nl_static
                           if not (_vectorizable_mosfet(d) or _vectorizable_diode(d))]
        self._lin_dynamic = [d for d in devices if not d.is_nonlinear_dynamic()]
        self._nl_dynamic = [d for d in devices if d.is_nonlinear_dynamic()]

        self._compile()
        if verify and self.n_unknowns <= 2000:
            self._verify()

    # ------------------------------------------------------------ compilation
    def _compile(self) -> None:
        n = self.n_unknowns
        zero = np.zeros(n)

        # Probe the affine (linear) device groups once at v = 0: their
        # Jacobian triplets are constant and the probed vector is the offset.
        self._i0, ls_rows, ls_cols, ls_vals = _record_stamps(
            self._lin_static, zero, n, dynamic=False)
        self._q0, ld_rows, ld_cols, ld_vals = _record_stamps(
            self._lin_dynamic, zero, n, dynamic=True)

        # Probe the generic nonlinear groups to learn their stamp pattern
        # (the set of touched coordinates is fixed by the topology; only the
        # values depend on v — re-verified on every evaluation).
        _, ns_rows, ns_cols, _ = _record_stamps(self._nl_static, zero, n, dynamic=False)
        _, nd_rows, nd_cols, _ = _record_stamps(self._nl_dynamic, zero, n, dynamic=True)
        self._ns_pattern = (ns_rows, ns_cols)
        self._nd_pattern = (nd_rows, nd_cols)

        # Each stamp slot takes entry ``kind * m + device`` of its group's
        # ``(..., kinds * m)`` value array.
        mosfet_entries = self._mosfets.jacobian_entries()
        mos_rows = np.asarray([e[0] for e in mosfet_entries], dtype=np.intp)
        mos_cols = np.asarray([e[1] for e in mosfet_entries], dtype=np.intp)
        self._mos_take = np.asarray(
            [e[3] * len(self._mosfets.devices) + e[2] for e in mosfet_entries],
            dtype=np.intp)

        diode_entries = self._diodes.jacobian_entries()
        dio_rows = np.asarray([e[0] for e in diode_entries], dtype=np.intp)
        dio_cols = np.asarray([e[1] for e in diode_entries], dtype=np.intp)
        self._dio_take = np.asarray(
            [e[3] * len(self._diodes.devices) + e[2] for e in diode_entries],
            dtype=np.intp)

        if self.is_sparse:
            diag = np.arange(n, dtype=np.intp)
            all_rows = np.concatenate([ls_rows, ld_rows, ns_rows, nd_rows, mos_rows,
                                       dio_rows, diag])
            all_cols = np.concatenate([ls_cols, ld_cols, ns_cols, nd_cols, mos_cols,
                                       dio_cols, diag])
            pattern = _sp.csc_matrix(
                (np.ones(all_rows.size), (all_rows, all_cols)), shape=(n, n))
            pattern.sum_duplicates()
            pattern.sort_indices()
            self._indices = pattern.indices.astype(np.int32, copy=True)
            self._indptr = pattern.indptr.astype(np.int32, copy=True)
            self.nnz = int(self._indices.size)
            pos_map: dict[tuple[int, int], int] = {}
            for col in range(n):
                for p in range(self._indptr[col], self._indptr[col + 1]):
                    pos_map[(int(self._indices[p]), col)] = p
            self._diag_pos = np.asarray([pos_map[(i, i)] for i in range(n)], dtype=np.intp)
            locate = np.vectorize(lambda r, c: pos_map[(r, c)], otypes=[np.intp])

            def positions(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
                if rows.size == 0:
                    return np.zeros(0, dtype=np.intp)
                return locate(rows, cols)

            self._ns_pos = positions(ns_rows, ns_cols)
            self._nd_pos = positions(nd_rows, nd_cols)
            self._mos_pos = positions(mos_rows, mos_cols)
            self._dio_pos = positions(dio_rows, dio_cols)
            self._g_base = np.zeros(self.nnz)
            np.add.at(self._g_base, positions(ls_rows, ls_cols), ls_vals)
            self._c_base = np.zeros(self.nnz)
            np.add.at(self._c_base, positions(ld_rows, ld_cols), ld_vals)
            self._g_lin = _sp.csc_matrix(
                (self._g_base.copy(), self._indices, self._indptr), shape=(n, n))
            self._c_lin = _sp.csc_matrix(
                (self._c_base.copy(), self._indices, self._indptr), shape=(n, n))
        else:
            self._g_base = np.zeros((n, n))
            np.add.at(self._g_base, (ls_rows, ls_cols), ls_vals)
            self._c_base = np.zeros((n, n))
            np.add.at(self._c_base, (ld_rows, ld_cols), ld_vals)
            self._g_lin = self._g_base
            self._c_lin = self._c_base
            self._mos_pos = mos_rows * n + mos_cols  # flat indices into raveled G
            self._dio_pos = dio_rows * n + dio_cols
            self._ns_pos = ns_rows * n + ns_cols
            self._nd_pos = nd_rows * n + nd_cols

        self._static_has_nl = (bool(self._nl_static) or bool(self._mosfets.devices)
                               or bool(self._diodes.devices))
        self._dynamic_has_nl = bool(self._nl_dynamic)
        self._diag_idx = np.arange(n)
        #: Scatter indices and broadcast operands per stack shape.
        self._per_shape: dict = {}

    def _verify(self) -> None:
        """Compare one compiled evaluation against the legacy dense path."""
        n = self.n_unknowns
        v = 0.05 + 0.02 * np.cos(np.arange(n, dtype=float))
        i_ref, g_ref = self.system.eval_static(v)
        q_ref, c_ref = self.system.eval_dynamic(v)
        i_cmp, g_op = self.eval_static(v)
        q_cmp, c_op = self.eval_dynamic(v)
        g_cmp = self.to_dense(g_op)
        c_cmp = self.to_dense(c_op)
        for name, ref, cmp_ in (("i", i_ref, i_cmp), ("G", g_ref, g_cmp),
                                ("q", q_ref, q_cmp), ("C", c_ref, c_cmp)):
            scale = max(float(np.max(np.abs(ref))), 1.0)
            if not np.allclose(ref, cmp_, rtol=1e-9, atol=1e-12 * scale):
                raise CircuitError(
                    f"compiled MNA assembly of {self.system.circuit.name!r} disagrees "
                    f"with the reference evaluation on {name}; a device most likely "
                    "violates the affine-stamp contract of is_nonlinear_static/"
                    "is_nonlinear_dynamic")

    # ------------------------------------------------------------- evaluation
    def eval_static(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Static currents ``i(v)`` and the conductance operand ``G(v)``.

        ``v`` is one state ``(n,)`` or a stack ``(S, n)``; the results carry
        the same leading axis.
        """
        n = self.n_unknowns
        lead = v.shape[:-1]
        i_ext = np.empty(lead + (n + 1,))
        i_ext[..., :n] = self._i0
        i_ext[..., :n] += self._matvec(self._g_lin, v)
        i_ext[..., n] = 0.0
        i_vec = i_ext[..., :n]

        if not self._static_has_nl:
            return i_vec.copy(), self._stacked(self._g_base, lead)

        g_op = np.empty(lead + self._g_base.shape)
        g_op[...] = self._g_base
        flat = g_op.reshape(lead + (-1,))

        if self._mosfets.devices or self._diodes.devices:
            v_ext = np.zeros(lead + (n + 1,))
            v_ext[..., :n] = v
        if self._mosfets.devices:
            current, values = self._mosfets.currents_and_conductances(v_ext)
            self._mosfets.scatter_currents(i_ext, current)
            _scatter_add(flat, self._mos_pos, values.take(self._mos_take, axis=-1),
                         self._per_shape)

        if self._diodes.devices:
            current, values = self._diodes.currents_and_conductances(v_ext)
            self._diodes.scatter_currents(i_ext, current)
            _scatter_add(flat, self._dio_pos, values.take(self._dio_take, axis=-1),
                         self._per_shape)

        for row in np.ndindex(lead) if self._nl_static else ():
            if self.is_sparse:
                vals = self._stamp_generic(self._nl_static, v[row], i_vec[row], False,
                                           self._ns_pattern)
                np.add.at(flat[row], self._ns_pos, vals)
            else:
                for device in self._nl_static:
                    device.stamp_static(v[row], i_vec[row], g_op[row])

        return i_vec.copy(), g_op

    def eval_dynamic(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Charges ``q(v)`` and the capacitance operand ``C(v)`` (1-D or stacked)."""
        lead = v.shape[:-1]
        q_vec = self._q0 + self._matvec(self._c_lin, v)
        if not self._dynamic_has_nl:
            return q_vec, self._stacked(self._c_base, lead)

        c_op = np.empty(lead + self._c_base.shape)
        c_op[...] = self._c_base
        for row in np.ndindex(lead):
            if self.is_sparse:
                vals = self._stamp_generic(self._nl_dynamic, v[row], q_vec[row], True,
                                           self._nd_pattern)
                np.add.at(c_op[row], self._nd_pos, vals)
            else:
                for device in self._nl_dynamic:
                    device.stamp_dynamic(v[row], q_vec[row], c_op[row])
        return q_vec, c_op

    def _matvec(self, matrix, v: np.ndarray) -> np.ndarray:
        """``matrix @ v`` per row, each row through the 1-D product's kernel.

        A stacked dense product runs as ``(S, n, 1)`` matrix-vector products
        (one BLAS ``gemv`` each, like the 1-D call; a ``gemm`` over the stack
        would round differently).  Sparse rows loop.
        """
        if v.ndim == 1:
            return matrix @ v
        if self.is_sparse:
            return np.stack([matrix @ row for row in v])
        return (matrix @ v[..., None])[..., 0]

    def _stacked(self, base: np.ndarray, lead: tuple) -> np.ndarray:
        """A constant operand, broadcast read-only over a stack's rows."""
        if not lead:
            return base
        key = (id(base), lead)
        view = self._per_shape.get(key)
        if view is None:
            view = self._per_shape[key] = np.broadcast_to(base, lead + base.shape)
        return view

    def matches(self, other) -> bool:
        """Whether ``other`` evaluates every state to the same bits as this engine.

        Compares the compiled linear stamps, the stamp positions and the
        device-group parameters byte for byte.  An engine with generic
        (per-device Python) nonlinear stamps matches only itself: those
        values live in device objects, not in arrays that can be compared.
        """
        if other is self:
            return True
        if not isinstance(other, CompiledMNA) or any(
                e._nl_static or e._nl_dynamic for e in (self, other)):
            return False
        return all(_same_bits(a, b) for a, b in zip(self._fingerprint(),
                                                    other._fingerprint()))

    def _fingerprint(self) -> list[np.ndarray]:
        mos, dio = self._mosfets, self._diodes
        arrays = [np.array([self.n_unknowns, self.n_nodes, self.is_sparse]),
                  self._i0, self._q0, self._g_base, self._c_base,
                  self._mos_pos, self._mos_take, self._dio_pos, self._dio_take,
                  mos._d, mos._g, mos._s, mos._sign, mos._beta, mos._vto,
                  mos._lam, mos._delta, dio._pos, dio._neg, dio._i_s, dio._vt,
                  dio._v_crit, dio._g_crit, dio._i_crit]
        if self.is_sparse:
            arrays += [self._indices, self._indptr]
        return arrays

    def _stamp_generic(self, devices: Sequence[Device], v: np.ndarray,
                       vec: np.ndarray, dynamic: bool,
                       pattern: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Stamp generic nonlinear devices, checking the cached pattern."""
        recorder = _TripletRecorder()
        for device in devices:
            if dynamic:
                device.stamp_dynamic(v, vec, recorder)
            else:
                device.stamp_static(v, vec, recorder)
        rows, cols, vals = recorder.arrays()
        if not (np.array_equal(rows, pattern[0]) and np.array_equal(cols, pattern[1])):
            raise CircuitError(
                f"device stamp pattern of {self.system.circuit.name!r} changed between "
                "evaluations; state-dependent stamp topologies are not supported by "
                "the compiled assembly — use assembly='legacy' for this circuit")
        return vals

    # -------------------------------------------------------------- operands
    def combine(self, g_op: np.ndarray, c_op: np.ndarray, alpha: float) -> np.ndarray:
        """Fresh operand ``G + alpha * C``."""
        return g_op + alpha * c_op

    def add_diag(self, op: np.ndarray, value: float, n_rows: int) -> None:
        """Add ``value`` to the first ``n_rows`` diagonal entries, in place."""
        if self.is_sparse:
            op[..., self._diag_pos[:n_rows]] += value
        else:
            idx = self._diag_idx[:n_rows]
            op[..., idx, idx] += value

    def materialize(self, op: np.ndarray):
        """Turn an operand into a matrix usable by the linear solvers.

        A stacked operand gives one matrix per row: the ``(S, n, n)`` array
        itself in dense mode, a list of CSC matrices in sparse mode.
        """
        if self.is_sparse:
            if op.ndim > 1:
                return [self.materialize(row) for row in op]
            return _sp.csc_matrix((op, self._indices, self._indptr),
                                  shape=(self.n_unknowns, self.n_unknowns))
        return op

    def to_dense(self, op: np.ndarray) -> np.ndarray:
        """Dense ``(n, n)`` array view of an operand (copies in sparse mode)."""
        if self.is_sparse:
            return self.materialize(op).toarray()
        return op


class LegacyEngine:
    """Reference engine: the original per-device dense stamping path."""

    is_sparse = False

    def __init__(self, system: "MNASystem") -> None:
        self.system = system
        self.n_unknowns = system.n_unknowns
        self.n_nodes = system.n_nodes

    def eval_static(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.system.eval_static(v)

    def eval_dynamic(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.system.eval_dynamic(v)

    def combine(self, g_op: np.ndarray, c_op: np.ndarray, alpha: float) -> np.ndarray:
        return g_op + alpha * c_op

    def add_diag(self, op: np.ndarray, value: float, n_rows: int) -> None:
        idx = np.arange(n_rows)
        op[idx, idx] += value

    def materialize(self, op: np.ndarray) -> np.ndarray:
        return op

    def to_dense(self, op: np.ndarray) -> np.ndarray:
        return op


def select_engine(system: "MNASystem", assembly: str = "auto"):
    """Resolve an assembly mode name to an evaluation engine.

    ``"auto"`` compiles the system and picks sparse CSC storage above
    :data:`SPARSE_THRESHOLD` unknowns; ``"dense"``/``"sparse"`` force the
    compiled engine's storage; ``"legacy"`` returns the original per-device
    dense stamping path (the reference implementation).
    """
    if assembly not in ASSEMBLY_MODES:
        raise ValueError(f"unknown assembly mode {assembly!r}; expected one of "
                         f"{ASSEMBLY_MODES}")
    if assembly == "legacy":
        return LegacyEngine(system)
    return system.compile(assembly)
