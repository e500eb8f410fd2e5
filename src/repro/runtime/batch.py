"""Lock-step batched evaluation of compiled Hammerstein models.

This is the serving hot path: thousands of stimuli stacked into one
``(n_stimuli, n_steps)`` array, all model states advanced together.  One
complex table lookup yields every branch drive for every step; the input
terms of the recurrence are then formed for all steps at once, and each time
step costs one complex multiply-add on an ``(n_branches, rows)`` block —
there is no per-stimulus Python whatsoever, which is what buys the
orders-of-magnitude margin over re-simulating each stimulus through the full
transient engine (the paper's reported speed-up, multiplied across the batch
axis).

A batch is evaluated in cache-sized tiles: a chunk of rows by a run of steps
whose workspace stays within :data:`TILE_BYTES`, so every phase works on
temporaries that stay in the core's cache instead of streaming a whole
``(n_steps, n_branches, n_stimuli)`` block through memory (loop blocking as
in Lam, Rothberg & Wolf, "The cache performance and optimizations of blocked
algorithms", ASPLOS 1991).  Tiling never changes results: stimuli are
independent, every operation is element-wise, and each branch's last drive
and state carry across a step edge, so a tile runs the same operations in
the same order as one pass over the whole batch, and any tiling of a batch
is bitwise identical.
"""

from __future__ import annotations

import time

import numpy as np

from ..exceptions import ModelError

__all__ = ["evaluate_batch", "shard_slices"]

#: Workspace budget of one tile, in bytes: half the 2 MiB per-core L2 of the
#: 2-core reference box, chosen from ``bulk`` benchmark pairs (CHANGES.md).
TILE_BYTES = 1 << 20
#: Fewest steps a tile spans when a batch is split, so each tile's fixed
#: number of NumPy calls is spread over many steps.
TILE_MIN_STEPS = 64
#: The ``timings`` keys of :func:`evaluate_batch`, the kernel's phases last.
_TIMING_KEYS = ("eval_s", "stage_out_s", "knots_s", "lookup_s", "drive_s",
                "recurrence_s")


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


def evaluate_batch(model, inputs: np.ndarray,
                   out: np.ndarray | None = None,
                   timings: dict | None = None) -> np.ndarray:
    """Evaluate a :class:`~repro.runtime.compiled.CompiledModel` on a batch.

    The batch runs in tiles of a chunk of rows by a run of steps, sized so a
    tile's workspace stays within :data:`TILE_BYTES` (about 1 MiB, under a
    core's L2): as many rows as fit at :data:`TILE_MIN_STEPS` steps, then as
    many steps as fit beside those rows.  A batch whose whole workspace fits
    is one tile.  Each row chunk runs its tiles in step order, and each
    branch's last drive ``v`` and state ``z`` carry into the next tile, whose
    first step adds the ``w0·v`` and ``E·z`` terms the untiled kernel would
    have taken from the step before.  Every operation is element-wise and
    runs in the same order, so the outputs are bitwise identical to one pass
    over the whole batch, whatever the tiling.

    Parameters
    ----------
    model:
        The compiled model (fixed ``dt``).
    inputs:
        Input samples on the model's uniform time grid: ``(B, K)`` for a batch
        of ``B`` stimuli, or 1-D ``(K,)`` for a single stimulus (returned
        shape matches the input shape).  Values outside the compiled
        ``[u_min, u_max]`` table span are clamped to the edges.
    out:
        Optional pre-allocated float64 output array of the same shape as
        ``inputs``; results are written into it and it is returned.  This is
        the zero-copy path of the shared-memory shard dataplane
        (:mod:`repro.serve.shards`): workers evaluate straight into their
        shared segment instead of materialising a result to pickle.
    timings:
        Optional dict the call **adds** its wall time into: ``eval_s`` (the
        kernel) and ``stage_out_s`` (copying tile results into ``outputs`` —
        for the shm dataplane, the write into the shared segment), and the
        kernel's phases inside ``eval_s``: ``knots_s`` (interpolation
        knots), ``lookup_s`` (static and branch tables), ``drive_s`` (the
        recurrence's input terms) and ``recurrence_s`` (the step loop and
        the output sum).  This is how shard workers attribute their stage
        timings without touching the tracer: the stamps ride the reply
        descriptor and the parent materialises the spans.  The clock is
        read once per tile and phase, never per time step, so the phases
        are timed whether or not a dict is passed.
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

    if out is None:
        outputs = np.empty_like(inputs)
    else:
        outputs = out[None, :] if out.ndim == 1 else out
    rows, steps = _tile_shape(model.n_branches, n_batch, n_steps)
    spent = [0.0] * len(_TIMING_KEYS)
    for row0 in range(0, n_batch, rows):
        carry = None
        for step0 in range(0, n_steps, steps):
            tile = slice(row0, row0 + rows), slice(step0, step0 + steps)
            t0 = time.monotonic()
            result, carry = _evaluate_tile(model, inputs[tile], carry, spent)
            t1 = time.monotonic()
            outputs[tile] = result.T
            spent[0] += t1 - t0
            spent[1] += time.monotonic() - t1
    if timings is not None:
        for key, seconds in zip(_TIMING_KEYS, spent):
            timings[key] = timings.get(key, 0.0) + seconds
    if single:
        return out if out is not None and out.ndim == 1 else outputs[0]
    return outputs


def _tile_shape(n_branches: int, n_batch: int, n_steps: int) -> tuple[int, int]:
    """Rows and steps of the tiles :func:`evaluate_batch` splits a batch into."""
    # Peak workspace of _evaluate_tile per stimulus step, in 8-byte floats:
    # per branch, the complex drives and states (2 floats each) plus the
    # lookup and product temporaries beside them, and a handful of per-step
    # floats (u, knots, static, outputs).  tracemalloc puts a 2-branch tile's
    # peak at 0.86 of this estimate (870 KiB of the 1 MiB budget); the
    # untiled 26 x 4096 block's was 15.6 MiB, 0.74 of it.
    cells = max(1, TILE_BYTES // (8 * (10 * n_branches + 6)))
    rows = max(1, min(n_batch, cells // min(n_steps, TILE_MIN_STEPS)))
    return rows, max(TILE_MIN_STEPS, cells // rows)


def _table_lookup(table: np.ndarray, idx: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Linear interpolation of a flat uniform table at precomputed knots.

    The result has the shape of ``idx``; ``frac`` broadcasts against it.
    """
    return table.take(idx) * (1.0 - frac) + table.take(idx + 1) * frac


def _evaluate_tile(model, u: np.ndarray, carry, spent: list):
    """Advance one ``(rows, steps)`` tile through the compiled recurrence.

    ``carry`` is ``None`` for a tile that starts at step 0, where every
    branch starts at equilibrium, and otherwise the ``(v, z)`` drives and
    states the previous tile of these rows ended on.  Returns the tile's
    step-major ``(steps, rows)`` outputs and the carry for the next tile;
    the knots, lookup, drive and recurrence seconds are added into
    ``spent[2:]``.
    """
    t0 = time.monotonic()
    # Uniform-grid interpolation knots, step-major (K, B), shared by every table.
    u = np.ascontiguousarray(u.T)
    n_steps, n_block = u.shape
    du = (model.u_max - model.u_min) / (model.n_table - 1)
    pos = (np.clip(u, model.u_min, model.u_max) - model.u_min) / du
    idx = np.minimum(pos.astype(np.intp), model.n_table - 2)
    frac = pos - idx
    t1 = time.monotonic()

    outputs = _table_lookup(model.static_table, idx, frac)         # (K, B)
    if model.n_branches == 0:
        spent[2] += t1 - t0
        spent[3] += time.monotonic() - t1
        return outputs, None

    # Every branch drive in one lookup of the flattened complex tables.
    offsets = model.n_table * np.arange(model.n_branches)[:, None]
    v = _table_lookup(model.branch_table.ravel(), idx[:, None, :] + offsets,
                      frac[:, None, :])                             # (K, P, B)
    t2 = time.monotonic()

    # Input terms of every step.  The first step of the first tile starts
    # each branch at equilibrium; a later tile's first step takes its w0
    # term from the drive the previous tile ended on.
    z = np.empty_like(v)
    np.multiply(model.w0[:, None], v[:-1], out=z[1:])
    if carry is None:
        np.multiply(model.init[:, None], v[0], out=z[0])
        first = 1
    else:
        v_last, prev = carry
        np.multiply(model.w0[:, None], v_last, out=z[0])
        first = 0
    z[first:] += model.w1[:, None] * v[first:]
    t3 = time.monotonic()

    # z[n] += E z[n-1]: one complex multiply-add per step over all P * B
    # states, with E repeated per row so the loop never broadcasts; a later
    # tile's first step continues from the state the previous tile ended on.
    expz = np.repeat(model.expz, n_block)
    decayed = np.empty_like(expz)
    states = z.reshape(n_steps, -1)
    if carry is None:
        prev = states[0]
    for state in states[first:]:
        np.multiply(expz, prev, out=decayed)
        state += decayed
        prev = state

    for p, weight in enumerate(model.c_out):
        outputs += weight * z[:, p].real
    t4 = time.monotonic()
    spent[2] += t1 - t0
    spent[3] += t2 - t1
    spent[4] += t3 - t2
    spent[5] += t4 - t3
    return outputs, (v[-1].copy(), prev.copy())
