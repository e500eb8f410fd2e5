"""Figure 8: error contours of the CAFFEINE baseline model.

The paper fits the same TFT data with ordinary vector fitting for the
frequency poles and CAFFEINE for the residue regression, and finds the error
to be substantially larger (max RMSE around -20 dB vs -60 dB) and less
uniformly distributed than for the RVF model.  This module reproduces that
comparison; the benchmark measures the baseline's build time (Table I row 2).
"""

import numpy as np

from repro.analysis import compare_surfaces
from repro.baselines import extract_caffeine_model
from .conftest import ERROR_BOUND


def _report(buffer_tft, extraction):
    return compare_surfaces(buffer_tft.siso_response(), extraction.model_surface(),
                            buffer_tft.state_axis(), buffer_tft.frequencies)


def test_caffeine_error_larger_than_rvf(buffer_tft, rvf_extraction, caffeine_extraction):
    rvf_report = _report(buffer_tft, rvf_extraction)
    caffeine_report = _report(buffer_tft, caffeine_extraction)
    # Paper: -20 dB (CAFFEINE) vs -60 dB (RVF) maximum error; require a clear
    # gap in the same direction.
    assert caffeine_report.max_gain_error_db > rvf_report.max_gain_error_db + 6.0
    assert caffeine_report.relative_rms > rvf_report.relative_rms


def test_caffeine_error_still_moderate(buffer_tft, caffeine_extraction):
    report = _report(buffer_tft, caffeine_extraction)
    # The baseline remains a usable model (the paper's Fig. 9 shows it tracking
    # the waveform), just less accurate: relative RMS below ~20 %.
    assert report.relative_rms < 0.2


def test_caffeine_error_exceeds_rvf_worst_case_over_much_of_the_plane(
        buffer_tft, rvf_extraction, caffeine_extraction):
    rvf_report = _report(buffer_tft, rvf_extraction)
    caffeine_report = _report(buffer_tft, caffeine_extraction)
    # "the error of the RVF model is lower and more equally distributed":
    # a substantial fraction of the plane has a CAFFEINE error larger than
    # RVF's *worst* error anywhere.
    fraction = np.mean(caffeine_report.gain_error > rvf_report.max_gain_error_db)
    assert fraction > 0.10


def test_caffeine_uses_ordinary_vf_poles(caffeine_extraction):
    assert caffeine_extraction.n_frequency_poles >= 2
    assert caffeine_extraction.model.is_stable()


def test_caffeine_flow_is_not_fully_automated(caffeine_extraction):
    # Table I's "Fully Automated = NO" column: the basis library is restricted
    # by hand to terms whose integrals exist in closed form.
    assert not caffeine_extraction.fully_automated


def test_benchmark_caffeine_model_extraction(benchmark, buffer_tft):
    """Table I "build time" of the CAFFEINE baseline flow."""
    result = benchmark.pedantic(
        lambda: extract_caffeine_model(buffer_tft, error_bound=ERROR_BOUND,
                                       generations=15),
        rounds=1, iterations=1)
    assert result.model.is_stable()
