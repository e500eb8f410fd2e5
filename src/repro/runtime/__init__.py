"""Compiled model runtime: batch serving of extracted surrogate models.

The paper extracts an analytical Hammerstein model so the full nonlinear
circuit never has to be simulated again; this package is the serving side of
that bargain.  It turns extraction results into deployable artifacts:

* :mod:`~repro.runtime.compiled` — fold each of a model's branches into one
  complex first-order recurrence at a fixed sample rate and tabulate its
  static nonlinear maps (:func:`compile_model` / :class:`CompiledModel`);
* :mod:`~repro.runtime.batch` — evaluate thousands of stimuli in lock-step
  as one ``(n_stimuli, n_steps)`` array, in cache-sized tiles of rows by
  steps (:func:`evaluate_batch`, :func:`stack_stimuli`);
* :mod:`~repro.runtime.registry` — content-hash-keyed persistence of
  compiled models with provenance metadata, so a sweep run in one process is
  served from any other (:class:`ModelRegistry`);
* :mod:`~repro.runtime.validate` — replay a scenario family through both the
  full :mod:`assembly <repro.circuit.assembly>` engine and the compiled model
  and report per-scenario drift (:func:`validate_model`).

The canonical flow is **compile → register → batch-serve → validate**; see
the ROADMAP quickstart for a complete example.
"""

from .batch import evaluate_batch, shard_slices, stack_stimuli
from .compiled import CompiledModel, compile_model
from .registry import ModelHandle, ModelRegistry, content_hash
from .validate import ValidationReport, ValidationRow, validate_model

__all__ = [
    "CompiledModel",
    "compile_model",
    "evaluate_batch",
    "shard_slices",
    "stack_stimuli",
    "ModelHandle",
    "ModelRegistry",
    "content_hash",
    "validate_model",
    "ValidationReport",
    "ValidationRow",
]
