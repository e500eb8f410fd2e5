"""Lock-step batched evaluation of compiled Hammerstein models.

This is the serving hot path: thousands of stimuli stacked into one
``(n_stimuli, n_steps)`` array, all model states advanced together.  One
complex table lookup yields every branch drive for every step; the input
terms of the recurrence are then formed for all steps at once, and each time
step costs one complex multiply-add on an ``(n_branches, chunk)`` block —
there is no per-stimulus Python whatsoever, which is what buys the
orders-of-magnitude margin over re-simulating each stimulus through the full
transient engine (the paper's reported speed-up, multiplied across the batch
axis).

The batch axis is memory-chunked the same way
:func:`repro.circuit.linalg.batched_transfer` chunks its frequency axis: the
transient per-chunk workspace (interpolated branch drives plus the complex
branch states) is kept below ``max_chunk_bytes``.  Chunking never changes
results — stimuli are independent and every operation is element-wise along
the batch axis — so the same batch evaluated with any chunk size is bitwise
identical.
"""

from __future__ import annotations

import time

import numpy as np

from ..exceptions import ModelError

__all__ = ["evaluate_batch", "shard_slices", "stack_stimuli"]


def shard_slices(n_rows: int, n_shards: int) -> list[slice]:
    """Deterministic contiguous partition of a batch axis into shards.

    The canonical split used by the shard pool (:mod:`repro.serve.shards`):
    rows stay in order, the first ``n_rows % n_shards`` shards take one extra
    row (``np.array_split`` semantics), and empty trailing shards are
    dropped.  Because :func:`evaluate_batch` is element-wise along the batch
    axis and bitwise chunk-invariant, evaluating the slices independently and
    concatenating reproduces the single-process result bit for bit.
    """
    n_rows = int(n_rows)
    n_shards = max(1, min(int(n_shards), n_rows if n_rows else 1))
    base, extra = divmod(n_rows, n_shards)
    slices: list[slice] = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        if size == 0:
            break
        slices.append(slice(start, start + size))
        start += size
    return slices


def stack_stimuli(waveforms, times: np.ndarray) -> np.ndarray:
    """Sample a collection of waveforms onto one time grid, shape ``(B, K)``.

    ``waveforms`` is an iterable of :class:`repro.circuit.waveforms.Waveform`
    (or plain callables); ``times`` the uniform serving grid, typically
    :meth:`CompiledModel.time_axis <repro.runtime.compiled.CompiledModel.
    time_axis>`.
    """
    times = np.asarray(times, dtype=float).ravel()
    rows = []
    for waveform in waveforms:
        sample = getattr(waveform, "sample", None)
        if callable(sample):
            rows.append(np.asarray(sample(times), dtype=float))
        else:
            rows.append(np.array([float(waveform(t)) for t in times]))
    if not rows:
        raise ModelError("stack_stimuli needs at least one waveform")
    return np.vstack(rows)


def evaluate_batch(model, inputs: np.ndarray,
                   max_chunk_bytes: int = 256 << 20,
                   out: np.ndarray | None = None,
                   timings: dict | None = None) -> np.ndarray:
    """Evaluate a :class:`~repro.runtime.compiled.CompiledModel` on a batch.

    Parameters
    ----------
    model:
        The compiled model (fixed ``dt``).
    inputs:
        Input samples on the model's uniform time grid: ``(B, K)`` for a batch
        of ``B`` stimuli, or 1-D ``(K,)`` for a single stimulus (returned
        shape matches the input shape).  Values outside the compiled
        ``[u_min, u_max]`` table span are clamped to the edges.
    max_chunk_bytes:
        Bound on the transient per-chunk workspace; the batch axis is split
        accordingly.
    out:
        Optional pre-allocated float64 output array of the same shape as
        ``inputs``; results are written into it and it is returned.  This is
        the zero-copy path of the shared-memory shard dataplane
        (:mod:`repro.serve.shards`): workers evaluate straight into their
        shared segment instead of materialising a result to pickle.
    timings:
        Optional dict the call **adds** its per-phase wall time into:
        ``eval_s`` (recurrence kernel) and ``stage_out_s`` (copying chunk
        results into ``outputs`` — for the shm dataplane, the write into
        the shared segment).  This is how shard workers attribute their
        stage timings without touching the tracer: the stamps ride the
        reply descriptor and the parent materialises the spans.  The clock
        is read once per chunk, never per time step, so the phases are
        timed whether or not a dict is passed.
    """
    inputs = np.asarray(inputs, dtype=float)
    single = inputs.ndim == 1
    if single:
        inputs = inputs[None, :]
    if inputs.ndim != 2:
        raise ModelError(f"inputs must be (n_stimuli, n_steps); got {inputs.shape}")
    if out is not None:
        if out.shape != (inputs.shape[0], inputs.shape[1]) and not (
                single and out.shape == (inputs.shape[1],)):
            raise ModelError(
                f"out array shape {out.shape} does not match input shape "
                f"{inputs.shape[1:] if single else inputs.shape}")
        if out.dtype != np.float64:
            raise ModelError(f"out array must be float64; got {out.dtype}")
    n_batch, n_steps = inputs.shape
    if n_steps < 1:
        raise ModelError("need at least one time sample")
    finite = np.isfinite(inputs)
    if not finite.all():
        # NaN/Inf would sail through np.clip and the intp cast into undefined
        # table indices, silently producing garbage outputs for the whole row.
        bad_rows = np.flatnonzero(~finite.all(axis=1))
        first_row = int(bad_rows[0])
        first_step = int(np.flatnonzero(~finite[first_row])[0])
        raise ModelError(
            f"stimulus batch contains non-finite samples: {bad_rows.size} of "
            f"{n_batch} row(s) affected, first at row {first_row} (stimulus "
            f"{first_row}), step {first_step} "
            f"(value {inputs[first_row, first_step]!r})")

    # Peak per-stimulus workspace of _evaluate_block, in rows of K floats:
    # per branch, the complex drives and states (2 rows each) plus the lookup
    # and product temporaries beside them (~7 rows per branch measured), and
    # a handful of per-step rows (u, knots, static, outputs).
    rows = 10 * model.n_branches + 6
    per_stim = 8 * n_steps * rows
    chunk = max(1, int(max_chunk_bytes // max(per_stim, 1)))

    if out is None:
        outputs = np.empty_like(inputs)
    else:
        outputs = out[None, :] if out.ndim == 1 else out
    eval_s = stage_out_s = 0.0
    for start in range(0, n_batch, chunk):
        t0 = time.monotonic()
        result = _evaluate_block(model, inputs[start:start + chunk])
        t1 = time.monotonic()
        outputs[start:start + chunk] = result
        eval_s += t1 - t0
        stage_out_s += time.monotonic() - t1
    if timings is not None:
        timings["eval_s"] = timings.get("eval_s", 0.0) + eval_s
        timings["stage_out_s"] = timings.get("stage_out_s", 0.0) + stage_out_s
    return outputs[0] if single else outputs


def _table_lookup(table: np.ndarray, idx: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Linear interpolation of a flat uniform table at precomputed knots.

    The result has the shape of ``idx``; ``frac`` broadcasts against it.
    """
    return table.take(idx) * (1.0 - frac) + table.take(idx + 1) * frac


def _evaluate_block(model, u: np.ndarray) -> np.ndarray:
    """Advance one (chunk, n_steps) block through the compiled recurrence."""
    # Uniform-grid interpolation knots, step-major (K, B), shared by every table.
    u = np.ascontiguousarray(u.T)
    n_steps, n_block = u.shape
    du = (model.u_max - model.u_min) / (model.n_table - 1)
    pos = (np.clip(u, model.u_min, model.u_max) - model.u_min) / du
    idx = np.minimum(pos.astype(np.intp), model.n_table - 2)
    frac = pos - idx

    outputs = _table_lookup(model.static_table, idx, frac)         # (K, B)
    if model.n_branches == 0:
        return outputs.T

    # Every branch drive in one lookup of the flattened complex tables.
    offsets = model.n_table * np.arange(model.n_branches)[:, None]
    v = _table_lookup(model.branch_table.ravel(), idx[:, None, :] + offsets,
                      frac[:, None, :])                             # (K, P, B)

    # Input terms of every step; z[0] starts each branch at equilibrium.
    z = np.empty_like(v)
    np.multiply(model.init[:, None], v[0], out=z[0])
    np.multiply(model.w0[:, None], v[:-1], out=z[1:])
    z[1:] += model.w1[:, None] * v[1:]

    # z[n] += E z[n-1]: one complex multiply-add per step over all P * B
    # states, with E repeated per row so the loop never broadcasts.
    expz = np.repeat(model.expz, n_block)
    carry = np.empty_like(expz)
    states = z.reshape(n_steps, -1)
    prev = states[0]
    for state in states[1:]:
        np.multiply(expz, prev, out=carry)
        state += carry
        prev = state

    for p, weight in enumerate(model.c_out):
        outputs += weight * z[:, p].real
    return outputs.T
