"""Device library for the MNA circuit simulator."""

from .base import Device, TwoTerminal
from .behavioral import CubicConductance
from .diode import Diode
from .mosfet import MOSFET, NMOS, PMOS, MOSFETParams
from .passives import Capacitor, Inductor, Resistor
from .sources import VCCS, VCVS, CurrentSource, VoltageSource

__all__ = [
    "Device",
    "TwoTerminal",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "Diode",
    "MOSFET",
    "NMOS",
    "PMOS",
    "MOSFETParams",
    "CubicConductance",
]
