"""Circuit container: nodes, devices, designated inputs and outputs.

A :class:`Circuit` is a plain in-memory description.  Calling
:meth:`Circuit.build` produces an :class:`repro.circuit.mna.MNASystem`, the
numerical object that the DC/AC/transient solvers and the TFT extraction
operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..exceptions import CircuitError
from .devices import (
    Capacitor,
    CurrentSource,
    Device,
    Diode,
    Inductor,
    MOSFET,
    MOSFETParams,
    NMOS,
    PMOS,
    Resistor,
    VoltageSource,
)
from .waveforms import Waveform

__all__ = ["Circuit", "Output", "GROUND_NAMES"]

#: Node names treated as the global reference node.
GROUND_NAMES = {"0", "gnd", "GND", "ground", "vss!", "0v"}


@dataclass(frozen=True)
class Output:
    """A named differential output ``y = v(positive) - v(negative)``."""

    name: str
    positive: str
    negative: str = "0"


class Circuit:
    """A netlist-level description of an analog circuit.

    Devices are added either through :meth:`add` or through the convenience
    factory methods (:meth:`resistor`, :meth:`capacitor`, ...), which also
    return the created device so parameters can be tweaked afterwards.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._devices: list[Device] = []
        self._device_names: set[str] = set()
        self._outputs: list[Output] = []

    # ------------------------------------------------------------------ access
    @property
    def devices(self) -> tuple[Device, ...]:
        return tuple(self._devices)

    @property
    def outputs(self) -> tuple[Output, ...]:
        return tuple(self._outputs)

    @property
    def inputs(self) -> tuple[Device, ...]:
        """Sources flagged as circuit inputs, in the order they were added."""
        return tuple(d for d in self._devices if getattr(d, "is_input", False))

    def node_names(self) -> list[str]:
        """All non-ground node names, in first-appearance order."""
        seen: list[str] = []
        for device in self._devices:
            for node in device.nodes:
                if node in GROUND_NAMES or node in seen:
                    continue
                seen.append(node)
        return seen

    def device(self, name: str) -> Device:
        """Look up a device by (case-sensitive) name."""
        for dev in self._devices:
            if dev.name == name:
                return dev
        raise CircuitError(f"no device named {name!r} in circuit {self.name!r}")

    def __iter__(self) -> Iterator[Device]:
        return iter(self._devices)

    def __len__(self) -> int:
        return len(self._devices)

    def component_count(self) -> dict[str, int]:
        """Histogram of device types, e.g. ``{"Resistor": 8, "NMOS": 27}``."""
        counts: dict[str, int] = {}
        for dev in self._devices:
            counts[type(dev).__name__] = counts.get(type(dev).__name__, 0) + 1
        return counts

    # ----------------------------------------------------------------- editing
    def add(self, device: Device) -> Device:
        if device.name in self._device_names:
            raise CircuitError(f"duplicate device name {device.name!r}")
        self._devices.append(device)
        self._device_names.add(device.name)
        return device

    def extend(self, devices: Iterable[Device]) -> None:
        for device in devices:
            self.add(device)

    def add_output(self, name: str, positive: str, negative: str = "0") -> Output:
        """Register a differential output ``v(positive) - v(negative)``."""
        if any(o.name == name for o in self._outputs):
            raise CircuitError(f"duplicate output name {name!r}")
        output = Output(name, str(positive), str(negative))
        self._outputs.append(output)
        return output

    # -------------------------------------------------------- factory helpers
    def resistor(self, name: str, pos: str, neg: str, value: float) -> Resistor:
        return self.add(Resistor(name, pos, neg, value))

    def capacitor(self, name: str, pos: str, neg: str, value: float) -> Capacitor:
        return self.add(Capacitor(name, pos, neg, value))

    def inductor(self, name: str, pos: str, neg: str, value: float) -> Inductor:
        return self.add(Inductor(name, pos, neg, value))

    def voltage_source(self, name: str, pos: str, neg: str,
                       value: float | Waveform = 0.0, *, is_input: bool = False) -> VoltageSource:
        return self.add(VoltageSource(name, pos, neg, value, is_input=is_input))

    def current_source(self, name: str, pos: str, neg: str,
                       value: float | Waveform = 0.0, *, is_input: bool = False) -> CurrentSource:
        return self.add(CurrentSource(name, pos, neg, value, is_input=is_input))

    def diode(self, name: str, pos: str, neg: str, **params: float) -> Diode:
        return self.add(Diode(name, pos, neg, **params))

    def nmos(self, name: str, drain: str, gate: str, source: str, bulk: str,
             params: MOSFETParams | None = None, **overrides: float) -> MOSFET:
        return self.add(NMOS(name, drain, gate, source, bulk, params=params, **overrides))

    def pmos(self, name: str, drain: str, gate: str, source: str, bulk: str,
             params: MOSFETParams | None = None, **overrides: float) -> MOSFET:
        return self.add(PMOS(name, drain, gate, source, bulk, params=params, **overrides))

    # ------------------------------------------------------------------- build
    def build(self) -> "MNASystem":
        """Assemble the MNA system (resolving node names to unknown indices)."""
        from .mna import MNASystem

        if not self._devices:
            raise CircuitError(f"circuit {self.name!r} contains no devices")
        if not self._outputs:
            raise CircuitError(
                f"circuit {self.name!r} has no outputs; call add_output() before build()")
        return MNASystem(self)

    # --------------------------------------------------------------- reporting
    def summary(self) -> str:
        """Human-readable one-paragraph summary used by examples and reports."""
        counts = self.component_count()
        total = sum(counts.values())
        parts = ", ".join(f"{n} {t}" for t, n in sorted(counts.items()))
        nodes = len(self.node_names())
        inputs = ", ".join(d.name for d in self.inputs) or "none"
        outputs = ", ".join(o.name for o in self._outputs) or "none"
        return (f"Circuit {self.name!r}: {total} devices ({parts}); {nodes} nodes; "
                f"inputs: {inputs}; outputs: {outputs}")
