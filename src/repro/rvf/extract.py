"""End-to-end RVF model extraction (the paper's Algorithm 1).

Given a TFT dataset this module

1. splits the response into a static part (the instantaneous gain ``H(x, 0)``)
   and a dynamic part ``H(x, s) - H(x, 0)``,
2. identifies a common set of frequency poles ``{a_p}`` over all sampled
   states with relaxed vector fitting, increasing the order by two until the
   error bound ``epsilon`` is met,
3. recursively fits the state-dependent residue trajectories ``r_p(x)`` (and
   the instantaneous gain) with a second, common set of state poles
   ``{b_q}``, again increasing the order until the bound is met,
4. integrates the fitted residue functions analytically over the input and
   fixes the integration constants from the circuit's DC solution,
5. assembles the resulting parallel Hammerstein model.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from ..exceptions import FittingError, ModelError
from ..tft.hyperplane import TFTDataset
from ..vectfit import fit_auto_order
from ..vectfit.orders import AutoFitReport
from ..vectfit.poles import initial_complex_poles, split_real_complex
from .hammerstein import HammersteinBranch, HammersteinModel, ModelMetadata
from .recursive import StateFitReport, fit_residue_trajectories

__all__ = ["RVFOptions", "RVFExtractionResult", "extract_rvf_model"]


@dataclass
class RVFOptions:
    """The RVF extraction's error bound and the TFT entry it models.

    The fitting itself has no settings: both stages run the relaxed vector
    fit of :func:`repro.vectfit.vector_fit`, the frequency-pole search
    (Algorithm 1 lines 14-17) with the order schedule of
    :func:`repro.vectfit.fit_auto_order` and the state-pole search (lines
    18-25) with that of :func:`repro.rvf.recursive.fit_residue_trajectories`.
    """

    #: The paper's error bound epsilon, shared by both pole searches.
    error_bound: float = 1e-3
    #: Model the dynamic part H - H(0) with a separately integrated static
    #: path (the paper's flow).  When False the full response is fitted by the
    #: Hammerstein branches alone.
    split_static: bool = True
    #: The TFT entry (output, input) that the model describes.
    output_index: int = 0
    input_index: int = 0

    def __post_init__(self) -> None:
        if self.error_bound <= 0:
            raise FittingError("error_bound must be positive")


@dataclass
class RVFExtractionResult:
    """Extracted model plus all the diagnostics needed for the paper's figures."""

    model: HammersteinModel
    frequency_report: AutoFitReport
    state_report: StateFitReport
    tft: TFTDataset
    build_time: float

    @property
    def n_frequency_poles(self) -> int:
        return self.frequency_report.order

    @property
    def n_state_poles(self) -> int:
        return self.state_report.order

    def model_surface(self) -> np.ndarray:
        """Model TFT surface on the training grid (for Fig. 7-style plots)."""
        return self.model.transfer_function(self.tft.states, self.tft.frequencies)

    def summary(self) -> str:
        return (f"RVF model: {self.n_frequency_poles} frequency poles, "
                f"{self.n_state_poles} state poles per residue, "
                f"frequency fit error {self.frequency_report.result.relative_error:.2e}, "
                f"state fit error {min(self.state_report.errors):.2e}, "
                f"build time {self.build_time:.2f} s")


def extract_rvf_model(tft: TFTDataset,
                      options: RVFOptions | None = None) -> RVFExtractionResult:
    """Run the complete time-domain RVF algorithm on a TFT dataset."""
    opts = options or RVFOptions()
    start_time = _time.perf_counter()

    response = tft.siso_response(opts.output_index, opts.input_index)       # (K, L)
    dc_gain = tft.siso_dc(opts.output_index, opts.input_index)              # (K,)
    states = tft.states                                                     # (K,)
    frequencies = tft.frequencies
    svals = 2j * np.pi * frequencies

    if np.max(np.abs(dc_gain.imag)) > 1e-6 * max(np.max(np.abs(dc_gain)), 1e-30):
        raise ModelError("H(x, 0) has a significant imaginary part; the MNA data "
                         "is inconsistent (G(k) should be real)")
    dc_gain = dc_gain.real

    # ------------------------------------------------------------------ DC point
    if tft.times is not None:
        k_dc = int(np.argmin(tft.times))
    else:
        k_dc = 0
    dc_input = float(states[k_dc])
    if tft.outputs is not None:
        dc_output = float(tft.outputs[k_dc, opts.output_index])
    else:
        dc_output = 0.0

    # --------------------------------------------------- 1. frequency-pole stage
    if opts.split_static:
        dynamic_data = response - dc_gain[:, None]
    else:
        dynamic_data = response

    f_positive = frequencies[frequencies > 0]
    if f_positive.size < 2:
        raise FittingError("the frequency grid needs at least two positive frequencies")
    f_min, f_max = float(f_positive.min()), float(f_positive.max())

    frequency_report = fit_auto_order(
        svals, dynamic_data, opts.error_bound,
        initial_pole_factory=lambda order: initial_complex_poles(f_min, f_max, order),
    )
    vf_result = frequency_report.result
    poles = vf_result.poles
    residues = vf_result.residues                    # (K, P)
    direct = vf_result.constants.real               # (K,) state-dependent feed-through

    # ------------------------------------------------ 2. state-axis (RVF) stage
    real_idx, pair_idx = split_real_complex(poles)
    representative = list(real_idx) + list(pair_idx)

    gain_samples = (dc_gain if opts.split_static else np.zeros_like(dc_gain)) + direct
    stacked = [gain_samples.astype(complex)]
    for p in representative:
        stacked.append(residues[:, p])
    samples = np.array(stacked)

    functions, state_report = fit_residue_trajectories(
        states, samples, opts.error_bound, variable="u")

    gain_function = functions[0]
    residue_functions = functions[1:]

    # --------------------------------------------- 3. Hammerstein model assembly
    branches: list[HammersteinBranch] = []
    for func, p in zip(residue_functions, representative):
        pole = poles[p]
        static = func.antiderivative().with_value_at(dc_input, 0.0)
        branches.append(HammersteinBranch(
            pole=pole,
            residue_function=func,
            static_function=static,
            is_complex_pair=bool(pole.imag != 0.0),
        ))

    static_function = gain_function.antiderivative().with_value_at(dc_input, dc_output)

    metadata = ModelMetadata(
        n_frequency_poles=poles.size,
        n_state_poles=state_report.order,
        frequency_fit_error=vf_result.relative_error,
        state_fit_error=float(min(state_report.errors)),
        error_bound=opts.error_bound,
        training_snapshots=tft.n_states,
        split_static=opts.split_static,
    )

    model = HammersteinModel(
        branches=branches,
        gain_function=gain_function,
        static_function=static_function,
        dc_input=dc_input,
        dc_output=dc_output,
        input_name=tft.input_names[opts.input_index] if tft.input_names else "u",
        output_name=tft.output_names[opts.output_index] if tft.output_names else "y",
        metadata=metadata,
    )

    build_time = _time.perf_counter() - start_time
    metadata.build_time_seconds = build_time

    # Record the hyperplane reproduction error on the training data.
    surface = model.transfer_function(tft.states, frequencies)
    deviation = surface - response
    scale = float(np.sqrt(np.mean(np.abs(response) ** 2))) or 1.0
    metadata.hyperplane_rmse_db = float(
        20.0 * np.log10(max(np.sqrt(np.mean(np.abs(deviation) ** 2)) / scale, 1e-300)))

    return RVFExtractionResult(
        model=model,
        frequency_report=frequency_report,
        state_report=state_report,
        tft=tft,
        build_time=build_time,
    )
