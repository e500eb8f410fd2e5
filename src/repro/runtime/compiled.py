"""Compilation of extracted Hammerstein models into discrete-time kernels.

The analytical model of :mod:`repro.rvf` is the paper's *deployable artifact*:
a cheap surrogate standing in for the full nonlinear circuit.  Evaluating it
through the analytical path, however, still walks Python objects — one
partial-fraction evaluation per branch per sample, one complex scalar
recurrence per branch.  :func:`compile_model` removes every remaining Python
indirection by freezing the model at a fixed sample interval ``dt``:

* each branch's first-order filter is folded into **one complex recurrence**:
  the exact exponential update
  ``z_{n+1} = E z_n + W0 v_n + W1 (v_{n+1}-v_n)`` of
  :mod:`repro.rvf.timedomain`, with ``E = exp(a dt)``, is stored as the
  per-branch coefficients ``(E, W0 - W1, W1)`` so every branch advances with
  one complex multiply-add per step;
* each branch's **static nonlinear map** ``f_p(u)`` (and the static path
  ``F_0(u)``) is tabulated on a uniform input grid and evaluated by vectorised
  linear interpolation, so serving never touches the analytical
  partial-fraction objects;
* everything lands in a plain :class:`CompiledModel` of NumPy arrays, which
  batch-evaluates thousands of stimuli in lock-step
  (:mod:`repro.runtime.batch`) and serialises losslessly through the model
  registry (:mod:`repro.runtime.registry`).

The compiled kernel reproduces :func:`repro.rvf.timedomain.
simulate_hammerstein` exactly up to the static-table interpolation error,
which shrinks quadratically with ``table_size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ModelError
from ..rvf.hammerstein import HammersteinModel, _evaluate_state_function

__all__ = ["CompiledModel", "compile_model"]

#: Serialisation format tag stored with every registry entry.
FORMAT = "compiled-hammerstein-v2"

#: Default number of static-table samples.  4097 = 2**12 + 1 keeps the
#: interpolation error of smooth partial-fraction maps far below the
#: extraction error bounds used in the paper (1e-3).
DEFAULT_TABLE_SIZE = 4097


@dataclass
class CompiledModel:
    """A Hammerstein model frozen at a fixed sample rate, as plain arrays.

    Each of the ``n_branches`` branches is one complex state advanced by

    .. math::

        z_{p,n+1} = E_p z_{p,n} + w^0_p v_{p,n} + w^1_p v_{p,n+1},
        \\qquad z_{p,0} = \\iota_p v_{p,0}

    where ``v_p = f_p(u)`` is the tabulated branch drive, ``w^0 = W0 - W1``
    and ``w^1 = W1`` are the exponential-integrator weights of
    :meth:`HammersteinBranch.recurrence
    <repro.rvf.hammerstein.HammersteinBranch.recurrence>` and
    ``iota = -1/a`` starts every branch at equilibrium.  The output is
    ``F_0(u_n) + sum_p c_p Re z_{p,n}``.  All arrays are read-only inputs of
    the batch evaluator; none are mutated at serve time.
    """

    #: Fixed sample interval the recurrence was folded at.
    dt: float
    #: Static-table grid: ``u_grid = u_min + du * arange(n_table)``.
    u_min: float
    u_max: float
    #: Tabulated static path ``F_0(u)``, shape ``(n_table,)``.
    static_table: np.ndarray
    #: Tabulated complex branch drives ``f_p(u)``, shape ``(n_branches, n_table)``.
    branch_table: np.ndarray
    #: Per-branch complex recurrence coefficients ``E``, ``W0 - W1``, ``W1``
    #: and the equilibrium start ``-1/a``, all shape ``(n_branches,)``.
    expz: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    init: np.ndarray
    #: Output weights ``c`` (2 for a complex-conjugate pair, 1 for a real pole).
    c_out: np.ndarray
    #: Book-keeping: names, extraction metadata, provenance.
    input_name: str = "u"
    output_name: str = "y"
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ shape
    @property
    def n_branches(self) -> int:
        return int(self.branch_table.shape[0])

    @property
    def n_table(self) -> int:
        return int(self.static_table.size)

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the array payload (cache-budget accounting).

        This is what the serving layer's byte-budget LRU cache
        (:class:`repro.serve.cache.ModelCache`) charges per resident model;
        the static tables dominate for any realistic ``table_size``.
        """
        return int(sum(array.nbytes for array in self.arrays().values()))

    @property
    def error_bound(self) -> float | None:
        """Extraction error bound recorded at compile time (if any)."""
        bound = self.metadata.get("error_bound")
        return None if bound is None else float(bound)

    # ------------------------------------------------------------- evaluation
    def evaluate(self, inputs: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Batched evaluation; delegates to :func:`repro.runtime.batch.evaluate_batch`.

        ``inputs`` is ``(n_stimuli, n_steps)`` (or 1-D for a single stimulus)
        sampled at this model's ``dt``; returns outputs of the same shape.
        The batch runs in cache-sized tiles whose workspace stays within
        :data:`repro.runtime.batch.TILE_BYTES`, with bitwise the same
        outputs as one pass over the whole batch.  ``out`` optionally
        receives the results in place (the shard dataplane's zero-copy
        path — see :func:`~repro.runtime.batch.evaluate_batch`).
        """
        from .batch import evaluate_batch

        return evaluate_batch(self, inputs, out=out)

    def time_axis(self, n_steps: int, t_start: float = 0.0) -> np.ndarray:
        """The uniform time grid of an ``n_steps``-sample evaluation."""
        return t_start + self.dt * np.arange(int(n_steps))

    # ----------------------------------------------------------- serialization
    _ARRAY_FIELDS = ("static_table", "branch_table", "expz", "w0", "w1",
                     "init", "c_out")

    def arrays(self) -> dict[str, np.ndarray]:
        """The array payload (registry ``npz`` content), in canonical order."""
        return {name: getattr(self, name) for name in self._ARRAY_FIELDS}

    def scalars(self) -> dict[str, float | str]:
        """The scalar payload (registry metadata JSON content)."""
        return {"format": FORMAT,
                "dt": self.dt, "u_min": self.u_min, "u_max": self.u_max,
                "input_name": self.input_name, "output_name": self.output_name}

    def describe(self) -> str:
        return (f"compiled model: {self.n_branches} complex branches, "
                f"dt={self.dt:.3e}s, static tables of "
                f"{self.n_table} samples on [{self.u_min:.3f}, {self.u_max:.3f}]")


def compile_model(model: HammersteinModel, dt: float,
                  input_range: tuple[float, float],
                  table_size: int = DEFAULT_TABLE_SIZE,
                  metadata: dict | None = None) -> CompiledModel:
    """Fold an extracted Hammerstein model into a :class:`CompiledModel`.

    Parameters
    ----------
    model:
        The analytical model produced by :func:`repro.rvf.extract_rvf_model`;
        its state is the input ``x = u(t)``, so every static map is a
        one-dimensional table.
    dt:
        Fixed sample interval of the compiled recurrence.  Stimuli served
        through the compiled model must be sampled on this grid.
    input_range:
        ``(u_min, u_max)`` span of the static tables — normally the training
        excursion of the sweep the model was extracted from.  Inputs outside
        the span are clamped to the table edges at serve time (the analytical
        model would extrapolate; a served surrogate should not).
    table_size:
        Number of uniform samples per static table (at least 2).
    metadata:
        Optional extra provenance merged into the compiled model's metadata
        (the extraction's :class:`~repro.rvf.hammerstein.ModelMetadata` is
        always recorded).
    """
    if dt <= 0.0:
        raise ModelError("compile_model: dt must be positive")
    u_min, u_max = float(input_range[0]), float(input_range[1])
    if not np.isfinite(u_min) or not np.isfinite(u_max) or u_max <= u_min:
        raise ModelError(f"invalid input_range ({u_min}, {u_max})")
    table_size = int(table_size)
    if table_size < 2:
        raise ModelError("table_size must be at least 2")

    u_grid = np.linspace(u_min, u_max, table_size)

    # ------------------------------------------- tables and branch recurrences
    static_table = np.asarray(model.static_output(u_grid), dtype=float)
    n_branches = model.n_branches
    branch_table = np.empty((n_branches, table_size), dtype=complex)
    expz = np.empty(n_branches, dtype=complex)
    w0 = np.empty(n_branches, dtype=complex)
    w1 = np.empty(n_branches, dtype=complex)
    init = np.empty(n_branches, dtype=complex)
    c_out = np.empty(n_branches)
    for j, branch in enumerate(model.branches):
        branch_table[j] = _evaluate_state_function(branch.static_function, u_grid)
        expz[j], w0[j], w1[j] = branch.recurrence(dt)
        init[j] = -1.0 / branch.pole           # equilibrium: 0 = a z + v
        c_out[j] = 2.0 if branch.is_complex_pair else 1.0
    w0 -= w1        # W0 v_n + W1 (v_{n+1} - v_n) = (W0 - W1) v_n + W1 v_{n+1}

    from dataclasses import asdict

    meta: dict = {"extraction": _jsonable_metadata(asdict(model.metadata)),
                  "error_bound": _none_if_nan(model.metadata.error_bound),
                  "dynamic_order": model.dynamic_order,
                  "dc_input": model.dc_input,
                  "dc_output": model.dc_output,
                  "table_size": table_size}
    if metadata:
        meta.update(metadata)

    return CompiledModel(
        dt=float(dt), u_min=u_min, u_max=u_max,
        static_table=static_table, branch_table=branch_table,
        expz=expz, w0=w0, w1=w1, init=init, c_out=c_out,
        input_name=model.input_name, output_name=model.output_name,
        metadata=meta,
    )


def _none_if_nan(value: float) -> float | None:
    return None if value is None or (isinstance(value, float) and np.isnan(value)) \
        else float(value)


def _jsonable_metadata(metadata: dict) -> dict:
    out = {}
    for key, value in metadata.items():
        if isinstance(value, float):
            out[key] = _none_if_nan(value)
        elif isinstance(value, (bool, int, str, dict, list)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out
