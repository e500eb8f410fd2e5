"""Linear-solver backends with LU-factor caching for the MNA analyses.

The Newton iterations of the DC and transient analyses solve a long sequence
of linear systems whose matrices differ only slightly from one another (and,
for linear circuits with a fixed time step, not at all).  The
:class:`FactorizationCache` exploits that: it keeps the LU factors of the last
factorised matrix and re-uses them — a *modified Newton* bypass — as long as
the matrix entries have drifted less than a relative tolerance since the
factorisation.  Convergence is unaffected because the Newton residual is
always evaluated exactly; a stale factor only changes the search direction.

Both dense matrices (LAPACK ``getrf``/``getrs``, called directly) and sparse
CSC matrices (``scipy.sparse.linalg.splu``) are supported; since the compiled
assembly (:mod:`repro.circuit.assembly`) emits every Jacobian on one shared
sparsity pattern, the drift check reduces to a vector comparison of the CSC
data arrays.
"""

from __future__ import annotations

import os as _os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np
import scipy.linalg as _sla
import scipy.sparse as _sp
import scipy.sparse.linalg as _spla

from ..exceptions import SingularMatrixError

__all__ = ["FactorizationCache", "batched_transfer", "fan_out", "solve_linear",
           "usable_cores"]

#: Thread cap of :func:`fan_out`: the transfer-function solves it spreads are
#: independent, but beyond a handful of threads the shared-memory bandwidth
#: of the triangular solves saturates.
_MAX_TRANSFER_THREADS = 8

#: LAPACK routines by name and operand dtypes, as ``get_lapack_funcs``
#: picks them (looked up once, not per Newton step).
_LAPACK: dict = {}


def _lapack(name: str, *arrays: np.ndarray):
    key = (name,) + tuple(a.dtype.char for a in arrays)
    func = _LAPACK.get(key)
    if func is None:
        func, = _sla.get_lapack_funcs((name,), arrays)
        _LAPACK[key] = func
    return func


class FactorizationCache:
    """Caches LU factors and re-uses them while the matrix barely changes.

    Parameters
    ----------
    reuse_tolerance:
        Maximum relative drift ``max|A - A_factored| / max|A_factored|`` for
        which the cached factors are still used.  ``0.0`` re-uses factors only
        for bit-identical matrices (which still pays off handsomely for linear
        circuits, whose Jacobian is constant across a whole transient).
    singular_threshold:
        A dense factorisation whose smallest pivot magnitude falls at or below
        this value, or that has a NaN or infinite pivot, raises
        :class:`SingularMatrixError` and caches nothing.
    drift_indices:
        Optional *per-block* drift metric: positions (into the CSC ``data``
        vector, or flat indices into the raveled dense matrix) of the entries
        whose drift should be compared — in the MNA analyses, the entries
        that nonlinear devices stamp.  Both the drift and its reference scale
        are then measured over this block only, so the tolerance is relative
        to the nonlinear entries' own magnitude rather than to the largest
        (often linear) entry of the whole matrix.  This is what makes a
        modified-Newton ``reuse_tolerance`` meaningful on large mostly-linear
        systems.  Callers are responsible for :meth:`invalidate` when entries
        *outside* the block change for structural reasons (e.g. the
        ``G + (2/dt) C`` combination after a time-step change).

    Dense matrices go straight to LAPACK ``getrf``/``getrs`` (the routine
    chosen by dtype exactly as ``scipy.linalg`` does), so a Newton step pays
    for the factorisation and the solve rather than for wrapper layers; a
    singular probe raises without emitting any warning.

    Attributes
    ----------
    factorizations / reuses / solves / invalidations:
        Counters for benchmarking, tests and the engine profile
        (:class:`~repro.telemetry.events.EngineProfile`).
    reused_last:
        Whether the most recent :meth:`solve` used stale (cached) factors.
    """

    def __init__(self, reuse_tolerance: float = 0.0,
                 singular_threshold: float = 0.0,
                 drift_indices: np.ndarray | None = None) -> None:
        if reuse_tolerance < 0.0:
            raise ValueError("reuse_tolerance must be non-negative")
        self.reuse_tolerance = float(reuse_tolerance)
        self.singular_threshold = float(singular_threshold)
        self.drift_indices = (None if drift_indices is None
                              else np.unique(np.asarray(drift_indices, dtype=np.intp)))
        self.factorizations = 0
        self.reuses = 0
        self.solves = 0
        self.invalidations = 0
        self.reused_last = False
        self._force_refactor = False
        self._sparse: bool | None = None
        self._data: np.ndarray | None = None
        #: The cached matrix's drift-block entries and their largest magnitude.
        self._block: np.ndarray | None = None
        self._block_scale = 0.0
        self._lu = None          # splu object (sparse) or (lu, piv) (dense)

    # ----------------------------------------------------------------- control
    def invalidate(self) -> None:
        """Force a refactorisation on the next :meth:`solve` (counted)."""
        self.invalidations += 1
        self._force_refactor = True

    def clear(self) -> None:
        """Drop the cached factors entirely."""
        self._data = None
        self._lu = None
        self._sparse = None
        self._force_refactor = False

    # ------------------------------------------------------------------ solve
    def solve(self, matrix, rhs: np.ndarray) -> np.ndarray:
        """Solve ``matrix @ x = rhs``, re-using cached factors when possible."""
        self.solves += 1
        sparse = _sp.issparse(matrix)
        data = matrix.data if sparse else np.asarray(matrix)

        if self._can_reuse(sparse, data):
            self.reuses += 1
            self.reused_last = True
            return self._apply(rhs)

        self._factorize(matrix, sparse, data)
        self.reused_last = False
        return self._apply(rhs)

    # --------------------------------------------------------------- internals
    def _can_reuse(self, sparse: bool, data: np.ndarray) -> bool:
        if self._lu is None or self._force_refactor or sparse != self._sparse:
            self._force_refactor = False
            return False
        cached = self._data
        if cached is None or cached.shape != data.shape:
            return False
        idx = self.drift_indices
        if idx is not None:
            if idx.size == 0:
                # Purely linear block set: entries only move for structural
                # reasons the caller signals through invalidate().
                return True
            flat = data.reshape(-1)
            if idx[-1] >= flat.size:          # mask built for another pattern
                return False
            drift = float(np.abs(flat[idx] - self._block).max())
            scale = self._block_scale
        else:
            drift = float(np.max(np.abs(data - cached))) if data.size else 0.0
            scale = float(np.max(np.abs(cached))) if cached.size else 0.0
        return drift <= self.reuse_tolerance * scale

    def _factorize(self, matrix, sparse: bool, data: np.ndarray) -> None:
        self.factorizations += 1
        self._sparse = sparse
        self._data = np.array(data, copy=True)
        idx = self.drift_indices
        if idx is not None and idx.size and idx[-1] < data.size:
            self._block = self._data.reshape(-1)[idx]
            self._block_scale = float(np.abs(self._block).max())
        if sparse:
            try:
                self._lu = _spla.splu(_sp.csc_matrix(matrix))
            except RuntimeError as exc:  # "Factor is exactly singular"
                self._lu = None
                raise SingularMatrixError(f"sparse LU factorisation failed: {exc}") from exc
        else:
            lu, piv, info = _lapack("getrf", data)(data)
            pivots = np.abs(lu.diagonal())
            # Singular probes are routine during gmin/source stepping; a zero
            # pivot (info > 0), one at or below the threshold, or a NaN or
            # infinite one (a non-finite Jacobian) all raise the typed error.
            if info or not (pivots.min() > self.singular_threshold
                            and pivots.max() < np.inf):
                self._lu = None
                raise SingularMatrixError(
                    "dense LU factorisation produced a zero or non-finite pivot")
            self._lu = (lu, piv)

    def _apply(self, rhs: np.ndarray) -> np.ndarray:
        if self._sparse:
            return self._lu.solve(rhs)
        lu, piv = self._lu
        return _lapack("getrs", lu, rhs)(lu, piv, rhs)[0]


def batched_transfer(g_mat: np.ndarray, c_mat: np.ndarray, s_values: np.ndarray,
                     input_matrix: np.ndarray, output_matrix: np.ndarray,
                     max_chunk_bytes: int = 64 << 20) -> np.ndarray:
    """``D^T (G + s C)^{-1} B`` for every ``s``, via batched LAPACK solves.

    The frequency axis is chunked so the ``(chunk, n, n)`` complex stack stays
    below ``max_chunk_bytes`` — large densified systems would otherwise
    multiply their peak memory by the full frequency count.  The stack is
    allocated once and each chunk's systems are written into it in place:
    ``G + Re(s) C`` into the real part and ``Im(s) C`` into the imaginary
    part, so on the imaginary axis the real part is ``G`` itself.
    Returns shape ``(len(s_values), n_outputs, n_inputs)``.  Raises
    ``numpy.linalg.LinAlgError`` if any system in the batch is singular.
    """
    n = g_mat.shape[0]
    rhs_full = input_matrix.astype(complex)
    chunk = max(1, int(max_chunk_bytes // max(16 * n * n, 1)))
    result = np.empty((s_values.size, output_matrix.shape[1], input_matrix.shape[1]),
                      dtype=complex)
    stack = np.empty((min(chunk, s_values.size), n, n), dtype=complex)
    for start in range(0, s_values.size, chunk):
        s_chunk = s_values[start:start + chunk, None, None]
        systems = stack[:s_chunk.shape[0]]
        real = np.multiply(s_chunk.real, c_mat, out=systems.real)
        real += g_mat
        np.multiply(s_chunk.imag, c_mat, out=systems.imag)
        rhs = np.broadcast_to(rhs_full, (s_chunk.shape[0],) + rhs_full.shape)
        solved = np.linalg.solve(systems, rhs)
        result[start:start + chunk] = np.einsum("no,fni->foi", output_matrix, solved)
    return result


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, else ``os.cpu_count()``."""
    try:
        return len(_os.sched_getaffinity(0))
    except AttributeError:      # no affinity masks on this platform
        return _os.cpu_count() or 1


def fan_out(task: Callable[[int, int], None], n_items: int) -> None:
    """Run ``task(start, stop)`` over contiguous ranges covering ``range(n_items)``.

    Each range goes to one thread of a pool of ``min(n_items,
    usable_cores(), 8)`` threads that lives only inside this call, so no
    thread survives it (a later ``fork`` inherits no pool); with fewer than
    two threads the one range ``(0, n_items)`` runs inline.  ``task``
    must write only its own range's results.  The ranges' outcomes are read
    in order, so the raised exception is the one of the lowest failing
    range — the exception a serial loop over the items raises first, if
    ``task`` stops at its first failing item.  NumPy's LAPACK calls and
    SciPy's SuperLU factorisations release the GIL, which is what the
    threads overlap.
    """
    workers = min(n_items, usable_cores(), _MAX_TRANSFER_THREADS)
    if workers < 2:
        task(0, n_items)
        return
    bounds = [n_items * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(task, bounds[:-1], bounds[1:]))


def solve_linear(matrix, rhs: np.ndarray) -> np.ndarray:
    """One-shot linear solve for dense or sparse matrices.

    Raises :class:`SingularMatrixError` on singular input, mirroring the
    behaviour of the Newton iteration's legacy ``np.linalg.solve`` path.
    """
    if _sp.issparse(matrix):
        try:
            return _spla.splu(_sp.csc_matrix(matrix)).solve(rhs)
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse LU factorisation failed: {exc}") from exc
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("singular dense system matrix") from exc
