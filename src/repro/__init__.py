"""repro — analytical nonlinear macromodels from analog circuits.

Reproduction of De Jonghe, Deschrijver, Dhaene and Gielen,
"Extracting Analytical Nonlinear Models from Analog Circuits by Recursive
Vector Fitting of Transfer Function Trajectories", DATE 2013.

The package is organised bottom-up:

* :mod:`repro.circuit` — nonlinear MNA circuit simulator (the SPICE substrate),
* :mod:`repro.tft` — Jacobian snapshots and Transfer Function Trajectories,
* :mod:`repro.vectfit` — (relaxed) vector fitting of frequency responses,
* :mod:`repro.rvf` — recursive vector fitting and Hammerstein model synthesis
  (the paper's core contribution),
* :mod:`repro.baselines` — the CAFFEINE-style regression baseline,
* :mod:`repro.circuits` — ready-made example circuits including the
  high-speed output buffer used in the paper's evaluation,
* :mod:`repro.sweep` — batched scenario sweeps (many stimuli / parameter
  corners in one call) feeding trajectory families into the TFT extraction,
* :mod:`repro.runtime` — compiled model runtime: batch serving of extracted
  models (recurrence compilation, registry persistence, sim-vs-model
  validation),
* :mod:`repro.serve` — traffic serving: micro-batching, per-model dispatch
  lanes, sharded worker processes, per-request futures,
* :mod:`repro.gateway` — asyncio TCP front-end and clients so remote
  processes reach the same scheduler,
* :mod:`repro.analysis` — error metrics and report tables.
"""

from __future__ import annotations

__version__ = "1.1.0"

from .analysis import compare_surfaces, time_domain_rmse
from .baselines import extract_caffeine_model
from .circuit import (
    Circuit,
    Sine,
    TransientOptions,
    ac_analysis,
    dc_operating_point,
    transient_analysis,
)
from .circuits import build_output_buffer, buffer_test_pattern, buffer_training_waveform
from .rvf import (
    HammersteinModel,
    RVFOptions,
    extract_rvf_model,
    simulate_hammerstein,
)
from .runtime import (
    CompiledModel,
    ModelRegistry,
    compile_model,
    validate_model,
)
from .sweep import Scenario, SweepOptions, run_sweep, waveform_sweep
from .tft import SnapshotTrajectory, TFTDataset, extract_tft

__all__ = [
    "__version__",
    # circuit substrate
    "Circuit", "Sine", "TransientOptions",
    "dc_operating_point", "ac_analysis", "transient_analysis",
    # example circuits
    "build_output_buffer", "buffer_training_waveform", "buffer_test_pattern",
    # TFT
    "SnapshotTrajectory", "TFTDataset", "extract_tft",
    # scenario sweeps
    "Scenario", "SweepOptions", "run_sweep", "waveform_sweep",
    # RVF core
    "extract_rvf_model", "RVFOptions", "HammersteinModel", "simulate_hammerstein",
    # compiled runtime
    "compile_model", "CompiledModel", "ModelRegistry", "validate_model",
    # baseline + analysis
    "extract_caffeine_model", "compare_surfaces", "time_domain_rmse",
]
