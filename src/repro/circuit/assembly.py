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
   currents and the Jacobian through precomputed index arrays.  A stack of
   states is one flat pass over all its rows' devices.

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


def _rows_flat(count: int, width: int, *blocks: np.ndarray) -> np.ndarray:
    """Flat indices of ``blocks`` in each of ``count`` rows of ``width``.

    Block by block, the indices of row 0, then of row 1, and so on: a gather
    through them gives each block as one contiguous run in row-major order,
    and a scatter visits each row's entries in the order of the block.
    """
    offsets = np.arange(count, dtype=np.intp)[:, None] * width
    return np.concatenate([(offsets + block).reshape(-1) for block in blocks])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _vectorizable_mosfet(device: Device) -> bool:
    """Standard square-law MOSFETs whose static stamps we can batch."""
    return (isinstance(device, MOSFET)
            and type(device).stamp_static is MOSFET.stamp_static
            and type(device).drain_current is MOSFET.drain_current
            and type(device)._forward_current is MOSFET._forward_current)


def _vectorizable_diode(device: Device) -> bool:
    """Standard Shockley diodes whose static stamps we can batch."""
    return (isinstance(device, Diode)
            and type(device).stamp_static is Diode.stamp_static
            and type(device).current_and_conductance is Diode.current_and_conductance)


class _DeviceGroup:
    """Vectorised static stamps of a batch of devices of one model.

    Ground terminals are mapped to a ghost slot ``n`` so gathers and
    scatters need no masking; the ghost slot of the current vector is
    discarded afterwards.  A stack of S states is evaluated on contiguous
    ``(S * m,)`` arrays: one gather takes the terminal voltages, and one
    scatter adds the currents and the Jacobian values, through flat indices
    made once per stack size (:meth:`_tiles`, read-only).  Every row gets
    the arithmetic and the accumulation order of a one-state call: each
    current entry and each Jacobian entry receives its devices' terms in
    device order, as the per-device stamps add them.

    A subclass evaluates its devices in :meth:`_evaluate` into B value
    blocks of ``(S * m,)``; block ``b + B`` is the negation of block ``b``.
    It names its ``TERMINALS``, the ``GATHER`` order of their voltages, the
    ``PARAMS`` arrays tiled per stack size, the ``(terminal, block)`` pairs
    of its ``CURRENT`` and the ``STAMPS`` table of ``(row terminal, column
    terminal, block)``.
    """

    TERMINALS: tuple[str, ...] = ()
    GATHER: tuple[str, ...] = ()
    PARAMS: tuple[str, ...] = ()
    CURRENT: tuple[tuple[str, int], ...] = ()
    STAMPS: tuple[tuple[str, str, int], ...] = ()

    def __init__(self, devices: Sequence[Device], n: int) -> None:
        self.devices = tuple(devices)
        self.n = n
        nodes = [dict(zip(self.TERMINALS, self._nodes(dev))) for dev in devices]
        self.node = {name: np.asarray([d[name] if d[name] >= 0 else n for d in nodes],
                                      dtype=np.intp)
                     for name in self.TERMINALS}
        # Non-ground Jacobian stamp slots, device by device in table order.
        slots = [(d[row], d[col], block, k) for k, d in enumerate(nodes)
                 for row, col, block in self.STAMPS if d[row] >= 0 and d[col] >= 0]
        self.slot_rows, self.slot_cols, self.slot_block, self.slot_device = (
            np.asarray(column, dtype=np.intp).reshape(-1)
            for column in (zip(*slots) if slots else ((), (), (), ())))
        #: Flat position of each slot in an operand row, and the row width
        #: (set by :meth:`place`).
        self.slot_pos = np.zeros(0, dtype=np.intp)
        self.width = 0
        self._per_count: dict[int, dict[str, np.ndarray]] = {}

    @staticmethod
    def _nodes(device) -> tuple[int, ...]:
        raise NotImplementedError

    def place(self, positions: np.ndarray, width: int) -> None:
        """Set the flat operand positions of the stamp slots."""
        self.slot_pos = np.asarray(positions, dtype=np.intp)
        self.width = int(width)
        self._per_count.clear()

    def fingerprint(self) -> list[np.ndarray]:
        """Every array the evaluation reads, for :meth:`CompiledMNA.matches`."""
        return ([self.node[name] for name in self.TERMINALS]
                + [getattr(self, name) for name in self.PARAMS]
                + [self.slot_block, self.slot_device, self.slot_pos,
                   np.array([self.width])])

    def _tiles(self, count: int) -> dict[str, np.ndarray]:
        """Read-only gather/scatter indices and parameters for ``count`` rows.

        The scatter targets a flat buffer of ``count`` current rows of
        ``n + 1`` entries followed by ``count`` operand rows of
        :attr:`width` entries; ``take`` picks each scattered value from the
        signed value blocks.
        """
        tiles = self._per_count.get(count)
        if tiles is None:
            n_ext, size = self.n + 1, count * len(self.devices)
            devices = np.arange(len(self.devices), dtype=np.intp)
            tiles = {name: np.tile(getattr(self, name), count) for name in self.PARAMS}
            tiles["gather"] = _rows_flat(count, n_ext,
                                         *(self.node[name] for name in self.GATHER))
            tiles["scatter"] = np.concatenate((
                _rows_flat(count, n_ext, *(self.node[name] for name, _ in self.CURRENT)),
                _rows_flat(count, self.width, self.slot_pos) + count * n_ext))
            tiles["take"] = np.concatenate(
                [_rows_flat(count, len(devices), devices) + block * size
                 for _, block in self.CURRENT]
                + [_rows_flat(count, len(devices), self.slot_device)
                   + np.tile(self.slot_block * size, count)])
            for array in tiles.values():
                array.setflags(write=False)
            self._per_count[count] = tiles
        return tiles

    def stamp(self, v_ext: np.ndarray, out: np.ndarray, count: int) -> None:
        """Add the group's currents and Jacobian values into ``out``.

        ``v_ext`` is a flat view of ``count`` states of ``n + 1`` entries
        (ghost slot last), ``out`` the flat buffer of :meth:`_tiles`.
        """
        tiles = self._tiles(count)
        blocks = self._evaluate(v_ext.take(tiles["gather"]), tiles)
        signed = np.concatenate((blocks, -blocks))
        np.add.at(out, tiles["scatter"], signed.take(tiles["take"]))

    def _evaluate(self, terminals: np.ndarray, tiles: dict[str, np.ndarray]) -> np.ndarray:
        """The value blocks, concatenated.

        ``terminals`` holds the ``GATHER`` voltages, one ``(S * m,)`` block
        each, and ``tiles`` the tiled ``PARAMS``.
        """
        raise NotImplementedError


class _MOSFETGroup(_DeviceGroup):
    """Square-law MOSFETs: :meth:`MOSFET.stamp_static` in array math.

    Reproduces the drain current, ``gm`` and ``gds`` including the
    reverse-operation drain/source swap.  Blocks: the physical drain
    current, ``gm``, ``gds`` and ``gm + gds``.
    """

    TERMINALS = ("d", "g", "s")
    GATHER = ("g", "d", "s", "s")
    PARAMS = ("sign", "sign2", "beta", "vto", "lam", "delta", "four_delta2")
    #: The current enters the drain and leaves the source.
    CURRENT = (("d", 0), ("s", 4))
    STAMPS = (("d", "g", 1), ("d", "d", 2), ("d", "s", 7),
              ("s", "g", 5), ("s", "d", 6), ("s", "s", 3))

    def __init__(self, devices: Sequence[MOSFET], n: int) -> None:
        super().__init__(devices, n)
        self.sign = np.asarray([float(dev.polarity) for dev in devices])
        # Tiled per stack size this is the sign of the gate block, then of
        # the drain block, of the gathered voltages.
        self.sign2 = np.concatenate((self.sign, self.sign))
        self.beta = np.asarray([dev.params.beta for dev in devices])
        self.vto = np.asarray([dev.params.vto for dev in devices])
        self.lam = np.asarray([dev.params.lam for dev in devices])
        self.delta = np.asarray([dev.params.smoothing for dev in devices])
        self.four_delta2 = 4.0 * self.delta * self.delta

    @staticmethod
    def _nodes(device) -> tuple[int, ...]:
        d, g, s, _b = device.node_index
        return d, g, s

    def _evaluate(self, terminals: np.ndarray, tiles: dict[str, np.ndarray]) -> np.ndarray:
        size = terminals.size // 4
        # Gate and drain voltages minus the source voltage, in one pass.
        controls = (terminals[:2 * size] - terminals[2 * size:]) * tiles["sign2"]
        vgs, vds = controls[:size], controls[size:]
        reverse = vds < 0.0
        vgs_f = np.where(reverse, vgs - vds, vgs)
        vds_f = np.abs(vds)

        delta = tiles["delta"]
        x = vgs_f - tiles["vto"]
        root = np.sqrt(x * x + tiles["four_delta2"])
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

        lam = tiles["lam"]
        clm = 1.0 + lam * vds_f
        beta = tiles["beta"]
        beta_f = beta * f
        i_f = beta_f * clm
        gm_f = beta * (df_dvov * dvov + df_dvdseff * dveff_dvdsat * dvdsat_dvgs) * clm
        gds_f = beta * df_dvdseff * dveff_dvds * clm + beta_f * lam

        i_d = np.where(reverse, -i_f, i_f)
        gm = np.where(reverse, -gm_f, gm_f)
        gds = np.where(reverse, gm_f + gds_f, gds_f)
        return np.concatenate((tiles["sign"] * i_d, gm, gds, gm + gds))


class _DiodeGroup(_DeviceGroup):
    """Shockley diodes: :meth:`Diode.current_and_conductance` in array math.

    Reproduces the exponential region, the linearised extrapolation above
    ``v_crit`` and the tiny parallel conductance.  Blocks: the current and
    the conductance.  The nonlinear *dynamic* stamps (junction/diffusion
    charge) stay on the generic per-device path — they are absent for many
    diodes and far off the static Newton hot path.
    """

    TERMINALS = ("p", "n")
    GATHER = ("p", "n")
    PARAMS = ("i_s", "vt", "v_crit", "g_crit", "i_crit")
    CURRENT = (("p", 0), ("n", 2))
    #: +g on the diagonal slots, -g off-diagonal.
    STAMPS = (("p", "p", 1), ("n", "n", 1), ("p", "n", 3), ("n", "p", 3))

    def __init__(self, devices: Sequence[Diode], n: int) -> None:
        super().__init__(devices, n)
        self.i_s = np.asarray([d.saturation_current for d in devices])
        self.vt = np.asarray([d._vt for d in devices])
        self.v_crit = np.asarray([d._v_crit for d in devices])
        exp_crit = np.exp(self.v_crit / self.vt) if devices else np.zeros(0)
        self.g_crit = self.i_s * exp_crit / self.vt
        self.i_crit = self.i_s * (exp_crit - 1.0)

    @staticmethod
    def _nodes(device) -> tuple[int, ...]:
        return device.pos, device.neg

    def _evaluate(self, terminals: np.ndarray, tiles: dict[str, np.ndarray]) -> np.ndarray:
        size = terminals.size // 2
        vd = terminals[:size] - terminals[size:]
        vt, v_crit, i_s = tiles["vt"], tiles["v_crit"], tiles["i_s"]
        expv = np.exp(np.minimum(vd / vt, 700.0))
        below = vd <= v_crit
        current = np.where(below, i_s * (expv - 1.0),
                           tiles["i_crit"] + tiles["g_crit"] * (vd - v_crit))
        conductance = np.where(below, i_s * expv / vt, tiles["g_crit"])
        # Same regularisation as the scalar model: a tiny parallel conductance
        # keeps strongly reverse-biased diodes off an exactly singular Jacobian.
        return np.concatenate((current + 1e-12 * vd, conductance + 1e-12))


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

        groups = (self._mosfets, self._diodes)
        #: The vectorised groups that have devices, in stamping order.
        self._groups = tuple(group for group in groups if group.devices)

        if self.is_sparse:
            diag = np.arange(n, dtype=np.intp)
            all_rows = np.concatenate([ls_rows, ld_rows, ns_rows, nd_rows]
                                      + [group.slot_rows for group in groups] + [diag])
            all_cols = np.concatenate([ls_cols, ld_cols, ns_cols, nd_cols]
                                      + [group.slot_cols for group in groups] + [diag])
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
            for group in groups:
                group.place(positions(group.slot_rows, group.slot_cols), self.nnz)
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
            for group in groups:  # flat indices into raveled G
                group.place(group.slot_rows * n + group.slot_cols, n * n)
            self._ns_pos = ns_rows * n + ns_cols
            self._nd_pos = nd_rows * n + nd_cols

        self._static_has_nl = bool(self._nl_static) or bool(self._groups)
        self._dynamic_has_nl = bool(self._nl_dynamic)
        #: Broadcast operands per stack shape.
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
        if not self._static_has_nl:
            return (self._i0 + self._matvec(self._g_lin, v),
                    self._stacked(self._g_base, lead))

        # One buffer: the current rows (ghost slot last), then the operand
        # rows, so each device group adds into both with one scatter.
        count = v.size // n
        buffer = np.empty(count * (n + 1 + self._g_base.size))
        i_ext = buffer[:count * (n + 1)].reshape(lead + (n + 1,))
        g_op = buffer[count * (n + 1):].reshape(lead + self._g_base.shape)
        i_vec = i_ext[..., :n]
        np.add(self._i0, self._matvec(self._g_lin, v), out=i_vec)
        i_ext[..., n] = 0.0
        g_op[...] = self._g_base
        if self._groups:
            v_ext = np.zeros(lead + (n + 1,))
            v_ext[..., :n] = v
            for group in self._groups:
                group.stamp(v_ext.reshape(-1), buffer, count)

        if self._nl_static:
            flat = g_op.reshape(lead + (-1,))
            for row in np.ndindex(lead):
                if self.is_sparse:
                    vals = self._stamp_generic(self._nl_static, v[row], i_vec[row],
                                               False, self._ns_pattern)
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
        """A constant operand as a read-only view, broadcast over a stack's rows.

        A 1-D state (empty ``lead``) gets a read-only view too, so a caller
        that writes into the operand raises instead of corrupting the engine.
        """
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
        arrays = [np.array([self.n_unknowns, self.n_nodes, self.is_sparse]),
                  self._i0, self._q0, self._g_base, self._c_base]
        for group in (self._mosfets, self._diodes):
            arrays += group.fingerprint()
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
        """Fresh C-contiguous operand ``G + alpha * C``.

        A ``C`` that is one operand broadcast over a stack (a linear charge
        model's) is scaled once, not once per row: the same products.
        """
        if c_op.ndim > self._c_base.ndim and c_op.strides[0] == 0:
            c_op = c_op[0]
        return g_op + alpha * c_op

    def add_diag(self, op: np.ndarray, value: float, n_rows: int) -> None:
        """Add ``value`` to the first ``n_rows`` diagonal entries, in place.

        ``op`` is C-contiguous, as :meth:`combine` returns it.
        """
        if not op.flags.c_contiguous:
            raise ValueError("add_diag needs a C-contiguous operand")
        if self.is_sparse:
            op[..., self._diag_pos[:n_rows]] += value
        else:
            # The diagonal is every (n + 1)-th entry of a row-major matrix.
            n = self.n_unknowns
            diagonal = op.reshape(op.shape[:-2] + (n * n,))[..., :n_rows * (n + 1):n + 1]
            diagonal += value

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
