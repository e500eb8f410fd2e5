"""Scenario descriptions for batched circuit sweeps.

A :class:`Scenario` is a *recipe*, not a built circuit: it stores a circuit
builder callable plus keyword arguments and rebuilds the circuit on demand.
That keeps scenarios cheap to create, trivially picklable (builders must be
module-level callables, e.g. the factories in :mod:`repro.circuits`) and safe
to ship to multiprocessing workers, which each construct and simulate their
own private circuit instance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..circuit.netlist import Circuit
from ..circuit.transient import TransientOptions
from ..circuit.waveforms import Waveform
from ..exceptions import ReproError

__all__ = ["Scenario", "waveform_sweep", "corner_sweep", "cross_sweep"]


@dataclass
class Scenario:
    """One simulation scenario of a sweep.

    Attributes
    ----------
    name:
        Unique label of the scenario within its sweep.
    builder:
        Module-level callable returning a :class:`Circuit`.  Called as
        ``builder(**builder_kwargs)`` with ``input_waveform=waveform`` merged
        in when :attr:`waveform` is set (the convention of every circuit
        factory in :mod:`repro.circuits`).
    builder_kwargs:
        Keyword arguments of the builder — the scenario's parameter corner.
    waveform:
        Optional stimulus injected as the builder's ``input_waveform``.
    transient:
        Time span, step and solver options of the scenario's transient run.
    max_snapshots:
        Optional per-scenario thinning of the captured snapshot trajectory
        (applied before the TFT transform; the paper uses ~100 samples).
    """

    name: str
    builder: Callable[..., Circuit]
    builder_kwargs: dict[str, Any] = field(default_factory=dict)
    waveform: Waveform | None = None
    transient: TransientOptions = field(default_factory=TransientOptions)
    max_snapshots: int | None = None

    def build_circuit(self) -> Circuit:
        """Construct a fresh circuit for this scenario."""
        kwargs = dict(self.builder_kwargs)
        if self.waveform is not None:
            kwargs["input_waveform"] = self.waveform
        circuit = self.builder(**kwargs)
        if not isinstance(circuit, Circuit):
            raise ReproError(
                f"scenario {self.name!r}: builder returned {type(circuit).__name__}, "
                "expected a Circuit")
        # Unique circuit name so reports/errors can be traced to the scenario.
        circuit.name = f"{circuit.name}[{self.name}]"
        return circuit

    def with_transient(self, **changes: Any) -> "Scenario":
        """Copy with fields of the transient options replaced."""
        return replace(self, transient=replace(self.transient, **changes))

    def recipe(self) -> dict[str, Any]:
        """JSON-able provenance record of this scenario.

        The record names the builder (module-qualified), its keyword
        arguments, the stimulus and the solver settings — enough for a human
        (or a registry audit) to re-create the scenario, without trying to be
        an executable serialisation.  Threaded into
        :class:`repro.runtime.ModelRegistry` entries so a served model can be
        traced back to the sweep that trained it.
        """
        return {
            "name": self.name,
            "builder": f"{getattr(self.builder, '__module__', '?')}."
                       f"{getattr(self.builder, '__qualname__', repr(self.builder))}",
            "builder_kwargs": {k: _jsonable(v) for k, v in self.builder_kwargs.items()},
            "waveform": _jsonable(self.waveform),
            "transient": asdict(self.transient),
            "max_snapshots": self.max_snapshots,
        }


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of scenario ingredients to JSON-able values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return {"class": type(value).__name__,
                **{f.name: _jsonable(getattr(value, f.name))
                   for f in fields(value)}}
    return repr(value)


def waveform_sweep(builder: Callable[..., Circuit],
                   waveforms: Mapping[str, Waveform] | Sequence[Waveform],
                   transient: TransientOptions | None = None,
                   builder_kwargs: Mapping[str, Any] | None = None,
                   max_snapshots: int | None = None,
                   prefix: str = "wave") -> list[Scenario]:
    """One scenario per input waveform, sharing circuit and solver options.

    ``waveforms`` may be a mapping (names become scenario names) or a plain
    sequence (scenarios are named ``{prefix}0``, ``{prefix}1``, ...).
    """
    if isinstance(waveforms, Mapping):
        named: list[tuple[str, Waveform]] = list(waveforms.items())
    else:
        named = [(f"{prefix}{i}", w) for i, w in enumerate(waveforms)]
    base = transient or TransientOptions()
    return [Scenario(name=name, builder=builder,
                     builder_kwargs=dict(builder_kwargs or {}),
                     waveform=waveform, transient=base,
                     max_snapshots=max_snapshots)
            for name, waveform in named]


def corner_sweep(builder: Callable[..., Circuit],
                 corners: Mapping[str, Mapping[str, Any]],
                 waveform: Waveform | None = None,
                 transient: TransientOptions | None = None,
                 max_snapshots: int | None = None) -> list[Scenario]:
    """One scenario per named parameter corner, sharing the stimulus.

    ``corners`` maps a corner name to the builder keyword arguments of that
    corner, e.g. ``{"slow": {"resistance": 1.2e3}, "fast": {...}}``.
    """
    base = transient or TransientOptions()
    return [Scenario(name=name, builder=builder, builder_kwargs=dict(kwargs),
                     waveform=waveform, transient=base,
                     max_snapshots=max_snapshots)
            for name, kwargs in corners.items()]


def cross_sweep(builder: Callable[..., Circuit],
                waveforms: Mapping[str, Waveform] | Sequence[Waveform],
                corners: Mapping[str, Mapping[str, Any]],
                transient: TransientOptions | None = None,
                max_snapshots: int | None = None) -> list[Scenario]:
    """Cartesian product of waveforms and corners (``corner/wave`` names)."""
    scenarios: list[Scenario] = []
    for corner_name, kwargs in corners.items():
        for scenario in waveform_sweep(builder, waveforms, transient=transient,
                                       builder_kwargs=kwargs,
                                       max_snapshots=max_snapshots):
            scenarios.append(replace(scenario, name=f"{corner_name}/{scenario.name}"))
    return scenarios


def validate_scenarios(scenarios: Iterable[Scenario]) -> list[Scenario]:
    """Check uniqueness of names; returns the scenarios as a list."""
    out = list(scenarios)
    if not out:
        raise ReproError("sweep needs at least one scenario")
    seen: set[str] = set()
    for scenario in out:
        if scenario.name in seen:
            raise ReproError(f"duplicate scenario name {scenario.name!r} in sweep")
        seen.add(scenario.name)
    return out
