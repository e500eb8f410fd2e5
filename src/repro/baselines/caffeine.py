"""CAFFEINE-style baseline for residue regression (the paper's comparison).

The paper compares the RVF residue regression against CAFFEINE
(McConaghy & Gielen, "Template-free symbolic performance modeling of analog
circuits via canonical-form functions and genetic programming").  CAFFEINE
builds models as *canonical-form functions*: a linear combination of product
terms drawn from a library of simple basis functions, with the structure
searched by an evolutionary algorithm and the coefficients fitted linearly.

This module implements a faithful, compact version of that idea:

* a library of unary basis functions (powers, exponentials, saturation and
  Gaussian shapes) of the state variable,
* an evolutionary structure search (selection + mutation + crossover over
  basis subsets) with a complexity penalty,
* linear least-squares coefficient fitting for every candidate structure.

Two properties of the baseline that the paper highlights are reproduced
explicitly:

* **automation**: the indefinite integral over the input that the Hammerstein
  synthesis requires exists in closed form only for some basis functions, so
  the library holds only terms with a closed-form antiderivative.  Choosing
  that library is what the paper did by hand ("relatively simple base
  functions ... such that the indefinite integral could be calculated
  manually"), so the flow is not fully automated.
* **accuracy**: with the restricted basis the fit is typically less accurate
  and less uniform over the state space than the RVF partial fractions, which
  is the behaviour seen in the paper's Fig. 8 and Table I.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf

from ..exceptions import FittingError, ModelError
from ..rvf.hammerstein import HammersteinBranch, HammersteinModel, ModelMetadata
from ..tft.hyperplane import TFTDataset
from ..vectfit import fit_auto_order
from ..vectfit.poles import initial_complex_poles, split_real_complex

__all__ = [
    "BasisTerm",
    "CaffeineFunction",
    "CaffeineIntegral",
    "fit_caffeine",
    "extract_caffeine_model",
    "CaffeineExtractionResult",
    "default_basis_library",
]

#: Evolutionary search: individuals per generation, most basis terms per
#: individual, fitness penalty per term, and the chances that a child is
#: mutated or bred by crossover.
POPULATION_SIZE = 32
MAX_TERMS = 6
COMPLEXITY_PENALTY = 2e-3
MUTATION_RATE = 0.35
CROSSOVER_RATE = 0.5
#: Seed of the search's random stream, so a fit is reproducible.
SEED = 2013


@dataclass(frozen=True)
class BasisTerm:
    """One canonical-form basis function ``g(x)`` with its antiderivative."""

    name: str
    function: Callable[[np.ndarray], np.ndarray]
    antiderivative: Callable[[np.ndarray], np.ndarray]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BasisTerm({self.name})"


def default_basis_library(x_center: float = 0.0, x_scale: float = 1.0) -> list[BasisTerm]:
    """The canonical-form basis library used by the baseline.

    The variable is normalised as ``z = (x - x_center) / x_scale`` so the
    library is well conditioned regardless of the physical state range.
    Every term is a polynomial, exponential, hyperbolic saturation or
    Gaussian shape with a closed-form antiderivative, the restriction the
    paper made by hand.
    """
    c, s = float(x_center), float(x_scale)

    def z(x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - c) / s

    terms = [
        BasisTerm("1", lambda x: np.ones_like(np.asarray(x, dtype=float)),
                  lambda x: np.asarray(x, dtype=float)),
        BasisTerm("z", lambda x: z(x), lambda x: s * z(x) ** 2 / 2.0),
        BasisTerm("z^2", lambda x: z(x) ** 2, lambda x: s * z(x) ** 3 / 3.0),
        BasisTerm("z^3", lambda x: z(x) ** 3, lambda x: s * z(x) ** 4 / 4.0),
        BasisTerm("z^4", lambda x: z(x) ** 4, lambda x: s * z(x) ** 5 / 5.0),
        BasisTerm("z^5", lambda x: z(x) ** 5, lambda x: s * z(x) ** 6 / 6.0),
        BasisTerm("exp(z)", lambda x: np.exp(np.clip(z(x), -40, 40)),
                  lambda x: s * np.exp(np.clip(z(x), -40, 40))),
        BasisTerm("exp(-z)", lambda x: np.exp(np.clip(-z(x), -40, 40)),
                  lambda x: -s * np.exp(np.clip(-z(x), -40, 40))),
        BasisTerm("tanh(2z)", lambda x: np.tanh(2.0 * z(x)),
                  lambda x: s * 0.5 * np.log(np.cosh(2.0 * z(x)))),
        BasisTerm("tanh(5z)", lambda x: np.tanh(5.0 * z(x)),
                  lambda x: s * 0.2 * np.log(np.cosh(5.0 * z(x)))),
        BasisTerm("sech^2(z)", lambda x: 1.0 / np.cosh(z(x)) ** 2,
                  lambda x: s * np.tanh(z(x))),
        BasisTerm("sech^2(2z)", lambda x: 1.0 / np.cosh(2.0 * z(x)) ** 2,
                  lambda x: s * 0.5 * np.tanh(2.0 * z(x))),
        BasisTerm("sech^2(4z)", lambda x: 1.0 / np.cosh(4.0 * z(x)) ** 2,
                  lambda x: s * 0.25 * np.tanh(4.0 * z(x))),
        BasisTerm("exp(-z^2)", lambda x: np.exp(-z(x) ** 2),
                  lambda x: s * 0.5 * np.sqrt(np.pi) * _erf(z(x))),
        BasisTerm("z*exp(-z^2)", lambda x: z(x) * np.exp(-z(x) ** 2),
                  lambda x: -s * 0.5 * np.exp(-z(x) ** 2)),
    ]
    return terms


@dataclass
class CaffeineFunction:
    """Canonical-form function: ``f(x) = sum_i coefficients[i] * terms[i](x)``."""

    terms: list[BasisTerm]
    coefficients: np.ndarray
    fit_error: float = np.nan

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if len(self.terms) != self.coefficients.size:
            raise ModelError("one coefficient per basis term is required")

    def __call__(self, x: np.ndarray | float) -> np.ndarray | complex:
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        value = np.zeros(x_arr.shape, dtype=complex)
        for term, coeff in zip(self.terms, self.coefficients):
            value = value + coeff * term.function(x_arr)
        if np.isscalar(x):
            return complex(value[0])
        return value

    @property
    def complexity(self) -> int:
        return len(self.terms)

    def integrate(self) -> "CaffeineIntegral":
        """Closed-form antiderivative, term by term."""
        return CaffeineIntegral(terms=list(self.terms),
                                coefficients=self.coefficients.copy())

    # Alias so the Hammerstein assembly can treat RVF and CAFFEINE functions alike.
    def antiderivative(self) -> "CaffeineIntegral":
        return self.integrate()

    def to_expression(self, precision: int = 6) -> str:
        parts = [f"({coeff.real:.{precision}g}{coeff.imag:+.{precision}g}j)*{term.name}"
                 for term, coeff in zip(self.terms, self.coefficients)]
        return " + ".join(parts) if parts else "0"


@dataclass
class CaffeineIntegral:
    """Antiderivative of a :class:`CaffeineFunction` (term-by-term)."""

    terms: list[BasisTerm]
    coefficients: np.ndarray
    offset: complex = 0.0

    def __call__(self, x: np.ndarray | float) -> np.ndarray | complex:
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        value = np.full(x_arr.shape, complex(self.offset), dtype=complex)
        for term, coeff in zip(self.terms, self.coefficients):
            value = value + coeff * term.antiderivative(x_arr)
        if np.isscalar(x):
            return complex(value[0])
        return value

    def with_value_at(self, x0: float, value: complex) -> "CaffeineIntegral":
        current = complex(self(float(x0)))
        return CaffeineIntegral(terms=list(self.terms),
                                coefficients=self.coefficients.copy(),
                                offset=self.offset + (value - current))

    def to_expression(self, precision: int = 6) -> str:
        parts = [f"({coeff.real:.{precision}g}{coeff.imag:+.{precision}g}j)*Int[{term.name}]"
                 for term, coeff in zip(self.terms, self.coefficients)]
        parts.append(f"{complex(self.offset).real:.{precision}g}")
        return " + ".join(parts)


def _fit_coefficients(terms: Sequence[BasisTerm], x: np.ndarray,
                      y: np.ndarray) -> tuple[np.ndarray, float]:
    matrix = np.column_stack([term.function(x) for term in terms])
    solution, *_ = np.linalg.lstsq(matrix, y, rcond=None)
    residual = matrix @ solution - y
    scale = float(np.sqrt(np.mean(np.abs(y) ** 2))) or 1.0
    error = float(np.sqrt(np.mean(np.abs(residual) ** 2))) / scale
    return solution, error


def fit_caffeine(states: np.ndarray, samples: np.ndarray,
                 generations: int = 25) -> CaffeineFunction:
    """Fit one (possibly complex-valued) function of the state with CAFFEINE.

    ``samples`` may be complex; the canonical-form terms are real functions of
    the state and the coefficients become complex, which mirrors using the
    same symbolic template for the real and imaginary parts.  The structure
    search runs ``generations`` generations of the evolutionary loop.
    """
    x = np.asarray(states, dtype=float)
    y = np.asarray(samples, dtype=complex).ravel()
    if x.size != y.size:
        raise FittingError("states and samples must have the same length")
    if x.size < 8:
        raise FittingError("CAFFEINE regression needs at least eight samples")

    library = default_basis_library(x_center=float(np.mean(x)),
                                    x_scale=float(np.std(x)) or 1.0)
    rng = np.random.default_rng(SEED)
    n_library = len(library)

    def random_individual() -> tuple[int, ...]:
        size = rng.integers(2, MAX_TERMS + 1)
        size = min(size, n_library)
        return tuple(sorted(rng.choice(n_library, size=size, replace=False).tolist()))

    def evaluate(individual: tuple[int, ...]) -> tuple[float, np.ndarray]:
        terms = [library[i] for i in individual]
        coeffs, error = _fit_coefficients(terms, x, y)
        fitness = error + COMPLEXITY_PENALTY * len(individual)
        return fitness, coeffs

    def mutate(individual: tuple[int, ...]) -> tuple[int, ...]:
        genes = set(individual)
        action = rng.random()
        if action < 0.4 and len(genes) < min(MAX_TERMS, n_library):
            genes.add(int(rng.integers(n_library)))
        elif action < 0.7 and len(genes) > 1:
            genes.discard(int(rng.choice(sorted(genes))))
        else:
            if genes:
                genes.discard(int(rng.choice(sorted(genes))))
            genes.add(int(rng.integers(n_library)))
        if not genes:
            genes.add(int(rng.integers(n_library)))
        return tuple(sorted(genes))

    def crossover(parent_a: tuple[int, ...], parent_b: tuple[int, ...]) -> tuple[int, ...]:
        union = sorted(set(parent_a) | set(parent_b))
        if len(union) <= 1:
            return tuple(union)
        keep = rng.random(len(union)) < 0.5
        genes = [g for g, k in zip(union, keep) if k]
        if not genes:
            genes = [union[int(rng.integers(len(union)))]]
        return tuple(sorted(genes[:MAX_TERMS]))

    population = [random_individual() for _ in range(POPULATION_SIZE)]
    scored = {ind: evaluate(ind) for ind in set(population)}

    for _ in range(generations):
        ranked = sorted(population, key=lambda ind: scored[ind][0])
        elite = ranked[: max(2, POPULATION_SIZE // 4)]
        next_population = list(elite)
        while len(next_population) < POPULATION_SIZE:
            if rng.random() < CROSSOVER_RATE and len(elite) >= 2:
                idx = rng.choice(len(elite), size=2, replace=False)
                child = crossover(elite[int(idx[0])], elite[int(idx[1])])
            else:
                child = elite[int(rng.integers(len(elite)))]
            if rng.random() < MUTATION_RATE or child in scored:
                child = mutate(child)
            next_population.append(child)
        population = next_population
        for individual in population:
            if individual not in scored:
                scored[individual] = evaluate(individual)

    best = min(scored, key=lambda ind: scored[ind][0])
    _, coefficients = scored[best]
    terms = [library[i] for i in best]
    _, error = _fit_coefficients(terms, x, y)
    return CaffeineFunction(terms=terms, coefficients=coefficients, fit_error=error)


# --------------------------------------------------------------------------- #
# full baseline extraction flow (ordinary VF poles + CAFFEINE residues)
# --------------------------------------------------------------------------- #

@dataclass
class CaffeineExtractionResult:
    """Extracted baseline model plus diagnostics for the Table I comparison."""

    model: HammersteinModel
    residue_errors: list[float]
    n_frequency_poles: int
    build_time: float
    fully_automated: bool
    tft: TFTDataset

    def model_surface(self) -> np.ndarray:
        return self.model.transfer_function(self.tft.states, self.tft.frequencies)

    def summary(self) -> str:
        return (f"CAFFEINE model: {self.n_frequency_poles} frequency poles, "
                f"max residue fit error {max(self.residue_errors):.2e}, "
                f"build time {self.build_time:.2f} s, "
                f"fully automated: {self.fully_automated}")


def extract_caffeine_model(tft: TFTDataset, error_bound: float = 1e-3,
                           generations: int = 25, output_index: int = 0,
                           input_index: int = 0) -> CaffeineExtractionResult:
    """Baseline flow: ordinary VF for the frequency poles, CAFFEINE residues.

    This mirrors the paper's comparison setup: "the same TFT data is fitted
    using the regular vector fitting algorithm for frequency pole allocation
    and the CAFFEINE regression toolbox is used for residue regression".
    Each residue trajectory and the static gain are fitted by
    :func:`fit_caffeine` with ``generations`` generations.
    """
    start = _time.perf_counter()
    response = tft.siso_response(output_index, input_index)
    dc_gain = tft.siso_dc(output_index, input_index).real
    states = tft.states
    frequencies = tft.frequencies
    svals = 2j * np.pi * frequencies

    k_dc = int(np.argmin(tft.times)) if tft.times is not None else 0
    dc_input = float(states[k_dc])
    dc_output = float(tft.outputs[k_dc, output_index]) if tft.outputs is not None else 0.0

    dynamic = response - dc_gain[:, None]
    positive = frequencies[frequencies > 0]
    report = fit_auto_order(
        svals, dynamic, error_bound,
        initial_pole_factory=lambda order: initial_complex_poles(
            float(positive.min()), float(positive.max()), order))
    vf = report.result
    poles = vf.poles
    real_idx, pair_idx = split_real_complex(poles)
    representative = list(real_idx) + list(pair_idx)

    residue_errors: list[float] = []
    gain_function = fit_caffeine(states, (dc_gain + vf.constants.real).astype(complex),
                                 generations)
    residue_errors.append(gain_function.fit_error)

    branches: list[HammersteinBranch] = []
    for p in representative:
        residue_function = fit_caffeine(states, vf.residues[:, p], generations)
        residue_errors.append(residue_function.fit_error)
        branches.append(HammersteinBranch(
            pole=poles[p],
            residue_function=residue_function,
            static_function=residue_function.integrate().with_value_at(dc_input, 0.0),
            is_complex_pair=bool(poles[p].imag != 0.0),
        ))

    static_function = gain_function.integrate().with_value_at(dc_input, dc_output)

    metadata = ModelMetadata(
        n_frequency_poles=poles.size,
        n_state_poles=0,
        frequency_fit_error=vf.relative_error,
        state_fit_error=float(max(residue_errors)),
        error_bound=error_bound,
        training_snapshots=tft.n_states,
        notes={"regressor": "caffeine"},
    )
    model = HammersteinModel(
        branches=branches,
        gain_function=gain_function,
        static_function=static_function,
        dc_input=dc_input,
        dc_output=dc_output,
        input_name=tft.input_names[input_index] if tft.input_names else "u",
        output_name=tft.output_names[output_index] if tft.output_names else "y",
        metadata=metadata,
    )
    build_time = _time.perf_counter() - start
    metadata.build_time_seconds = build_time

    return CaffeineExtractionResult(
        model=model,
        residue_errors=residue_errors,
        n_frequency_poles=int(poles.size),
        build_time=build_time,
        # The paper flags CAFFEINE as "not fully automated" (Table I's "NO"):
        # every term integrates in closed form only because the basis library
        # was restricted to such terms by hand.
        fully_automated=False,
        tft=tft,
    )
