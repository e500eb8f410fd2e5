"""Linear-solver backends with LU-factor caching for the MNA analyses.

The Newton iterations of the DC and transient analyses solve a long sequence
of linear systems.  For a linear circuit at a fixed time step the matrix
does not change at all, and the :class:`FactorizationCache` exploits that: it
keeps the LU factors of the last factorised matrix and reuses them for the
next matrix only when that matrix is equal to it, so every solve is exact.

Both dense matrices (LAPACK ``getrf``/``getrs``, called directly) and sparse
CSC matrices (``scipy.sparse.linalg.splu``) are supported.
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

#: Largest ``(chunk, n, n)`` complex system stack :func:`batched_transfer`
#: allocates, in bytes.
MAX_CHUNK_BYTES = 64 << 20

#: LAPACK routines by name and operand dtypes, as ``get_lapack_funcs``
#: picks them (looked up once, not per Newton step).
_LAPACK: dict = {}


def _lapack(name: str, a: np.ndarray, b: np.ndarray | None = None):
    """LAPACK routine ``name`` for the operands ``a`` (and ``b``)."""
    key = (name, a.dtype.char, a.dtype.char if b is None else b.dtype.char)
    func = _LAPACK.get(key)
    if func is None:
        func, = _sla.get_lapack_funcs((name,), (a,) if b is None else (a, b))
        _LAPACK[key] = func
    return func


class FactorizationCache:
    """Caches the LU factors of the last matrix and reuses them for an equal one.

    A matrix is solved with the cached factors when it is the same kind
    (dense or CSC) as the factorised one and equal to it entry for entry —
    for a CSC matrix, pattern (``indptr``, ``indices``) and ``data`` alike.
    Every solve therefore uses the exact LU of its own matrix, bitwise what
    factorising it afresh would give.

    Dense matrices go straight to LAPACK ``getrf``/``getrs`` (the routine
    chosen by dtype exactly as ``scipy.linalg`` does), so a Newton step pays
    for the factorisation and the solve rather than for wrapper layers; a
    dense factorisation with a zero, NaN or infinite pivot raises
    :class:`SingularMatrixError` without emitting any warning and caches
    nothing.

    Attributes
    ----------
    factorizations / reuses / solves:
        Counters for benchmarking, tests and the engine profile
        (:class:`~repro.telemetry.events.EngineProfile`).
    """

    def __init__(self) -> None:
        self.factorizations = 0
        self.reuses = 0
        self.solves = 0
        #: The factorised matrix: ``(dense,)`` or CSC ``(data, indices, indptr)``.
        self._key: tuple = ()
        self._lu = None          # splu object (sparse) or (lu, piv) (dense)
        #: Flat index of an entry in which a dense matrix last differed from
        #: the factorised one.
        self._probe = 0

    def solve(self, matrix, rhs: np.ndarray) -> np.ndarray:
        """Solve ``matrix @ x = rhs``, reusing the factors of an equal matrix."""
        if _sp.issparse(matrix):
            return self._solve_sparse(matrix, rhs)
        self.solves += 1
        matrix = np.asarray(matrix)
        key = self._key
        # The entry that differed last time rejects most unequal matrices
        # before the full comparison.
        if (self._lu is not None and len(key) == 1 and key[0].shape == matrix.shape
                and key[0].item(self._probe) == matrix.item(self._probe)):
            equal = key[0] == matrix
            if equal.all():
                self.reuses += 1
                lu, piv = self._lu
                return _lapack("getrs", lu, rhs)(lu, piv, rhs)[0]
            self._probe = int(equal.argmin())
        self.factorizations += 1
        self._lu = None
        lu, piv, info = _lapack("getrf", matrix)(matrix)
        # Singular matrices are routine during gmin/source stepping.  getrf
        # reports an exactly zero pivot in ``info``; a NaN or infinite one (a
        # non-finite Jacobian) shows on the diagonal of the factors.
        if info or not np.isfinite(lu.diagonal()).all():
            raise SingularMatrixError(
                "dense LU factorisation produced a zero or non-finite pivot")
        self._key, self._lu = (matrix.copy(),), (lu, piv)
        if self._probe >= matrix.size:
            self._probe = 0
        return _lapack("getrs", lu, rhs)(lu, piv, rhs)[0]

    def _solve_sparse(self, matrix, rhs: np.ndarray) -> np.ndarray:
        self.solves += 1
        key = (matrix.data, matrix.indices, matrix.indptr)
        if (self._lu is not None and len(key) == len(self._key)
                and all(map(np.array_equal, key, self._key))):
            self.reuses += 1
        else:
            self.factorizations += 1
            self._lu = None
            try:
                lu = _spla.splu(_sp.csc_matrix(matrix))
            except RuntimeError as exc:  # "Factor is exactly singular"
                raise SingularMatrixError(f"sparse LU factorisation failed: {exc}") from exc
            self._key, self._lu = tuple(part.copy() for part in key), lu
        return self._lu.solve(rhs)


def batched_transfer(g_mat: np.ndarray, c_mat: np.ndarray, s_values: np.ndarray,
                     input_matrix: np.ndarray, output_matrix: np.ndarray) -> np.ndarray:
    """``D^T (G + s C)^{-1} B`` for every ``s``, via batched LAPACK solves.

    The frequency axis is chunked so the ``(chunk, n, n)`` complex stack stays
    below :data:`MAX_CHUNK_BYTES` — large densified systems would otherwise
    multiply their peak memory by the full frequency count.  The stack is
    allocated once and each chunk's systems are written into it in place:
    ``G + Re(s) C`` into the real part and ``Im(s) C`` into the imaginary
    part, so on the imaginary axis the real part is ``G`` itself.
    Returns shape ``(len(s_values), n_outputs, n_inputs)``.  Raises
    ``numpy.linalg.LinAlgError`` if any system in the batch is singular.
    """
    n = g_mat.shape[0]
    rhs_full = input_matrix.astype(complex)
    chunk = max(1, int(MAX_CHUNK_BYTES // max(16 * n * n, 1)))
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
