"""Runtime serving: compile -> register -> batch-serve -> validate.

The paper's punchline is that the extracted model *replaces* the circuit;
this example shows the serving side of that bargain with :mod:`repro.runtime`:

1. sweep one circuit family over several training stimuli and extract a
   Hammerstein model from the merged Transfer Function Trajectory,
2. **compile** the model into a discrete-time kernel — poles and residues
   folded into one complex recurrence per branch at a fixed sample rate, the
   static nonlinear maps tabulated,
3. **register** the compiled artifact in a content-hash-keyed on-disk
   registry together with the sweep's provenance (any later process can load
   and serve it without re-extracting),
4. **batch-serve** 2000 random sine stimuli in one lock-step evaluation, and
5. **validate** the served model against the full transistor-level engine on
   a held-out scenario family.

Run with:  python examples/runtime_serving.py
(set REPRO_EXAMPLES_SMOKE=1 for a reduced-workload smoke run)
"""

import os
import tempfile
import time

import numpy as np

from repro.circuit import Sine, TransientOptions
from repro.circuits import build_output_buffer, buffer_training_waveform
from repro.rvf import RVFOptions, extract_rvf_model
from repro.runtime import ModelRegistry, compile_model, validate_model
from repro.sweep import SweepOptions, run_sweep, waveform_sweep

#: Reduced workload for CI smoke runs (REPRO_EXAMPLES_SMOKE=1).
SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE", "") not in ("", "0")
N_STIMULI = 400 if SMOKE else 2000


def main():
    # 1. Training sweep: three amplitudes of the paper's slow training sine.
    base = buffer_training_waveform()
    period = 1.0 / base.frequency
    transient = TransientOptions(t_stop=period, dt=period / 150)
    scenarios = waveform_sweep(
        build_output_buffer,
        [Sine(base.offset, amplitude, base.frequency)
         for amplitude in (0.3, 0.4, 0.5)],
        transient=transient, max_snapshots=60)
    sweep = run_sweep(scenarios, SweepOptions(n_workers=3))
    print(sweep.describe())

    dataset = sweep.extract_combined_tft(max_snapshots=120)
    print(dataset.describe())
    extraction = extract_rvf_model(dataset, RVFOptions(error_bound=1e-3))
    print(extraction.summary())

    # 2. Compile at the training sample rate over the training excursion.
    states = dataset.state_axis()
    compiled = compile_model(extraction.model, dt=transient.dt,
                             input_range=(float(states.min()),
                                          float(states.max())))
    print(compiled.describe())

    # 3. Register with provenance; any process can now serve this model.
    registry = ModelRegistry(tempfile.mkdtemp(prefix="model-registry-"))
    key = registry.save(compiled, provenance=sweep.provenance())
    print(f"registered as {key[:16]}... ({registry.describe()})")
    served_model = registry.load(key)          # fresh-load, integrity-checked

    # 4. Batch-serve 2000 random stimuli sampled on the model's grid.
    rng = np.random.default_rng(0)
    n_stimuli, n_steps = N_STIMULI, 256
    times = served_model.time_axis(n_steps)
    amplitudes = rng.uniform(0.1, 0.5, n_stimuli)
    frequencies = rng.uniform(1e6, 4e6, n_stimuli)
    stimuli = base.offset + amplitudes[:, None] * np.sin(
        2.0 * np.pi * frequencies[:, None] * times[None, :])
    start = time.perf_counter()
    outputs = served_model.evaluate(stimuli)
    wall = time.perf_counter() - start
    print(f"served {n_stimuli} stimuli x {n_steps} steps in {wall * 1e3:.1f} ms "
          f"({n_stimuli * n_steps / wall / 1e6:.1f} M samples/s)")
    print(f"output excursion [{outputs.min():.3f}, {outputs.max():.3f}] V")

    # 5. Validate against the full engine on a held-out amplitude/frequency.
    # Held-out stimuli get a 2x margin on the training bound: the extraction
    # guarantees the bound on its training hyperplane only.
    held_out_sines = [Sine(base.offset, 0.35, 1.5e6)]
    if not SMOKE:
        held_out_sines.append(Sine(base.offset, 0.45, 2.5e6))
    held_out = waveform_sweep(
        build_output_buffer, held_out_sines,
        transient=TransientOptions(t_stop=float(times[-1]), dt=transient.dt))
    report = validate_model(served_model, held_out,
                            error_bound=2.0 * extraction.model.metadata.error_bound)
    print(report.render())
    print(report.summary())


if __name__ == "__main__":
    main()
