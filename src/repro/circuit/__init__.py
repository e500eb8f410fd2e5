"""Nonlinear MNA circuit simulator substrate.

This subpackage replaces the commercial ELDO/SPICE simulator used by the
paper: it provides circuit description, DC operating-point, AC and nonlinear
transient analyses, and — crucially for the reproduction — access to the
internal MNA Jacobians ``G(k)`` and ``C(k)`` at every accepted transient time
step.
"""

from .ac import ACResult, ac_analysis, frequency_grid
from .assembly import SPARSE_THRESHOLD, CompiledMNA, LegacyEngine, select_engine
from .dc import DCResult, dc_operating_point
from .linalg import FactorizationCache, solve_linear
from .devices import (
    MOSFET,
    NMOS,
    PMOS,
    VCCS,
    VCVS,
    Capacitor,
    CubicConductance,
    CurrentSource,
    Device,
    Diode,
    Inductor,
    MOSFETParams,
    Resistor,
    VoltageSource,
)
from .mna import MNASystem
from .netlist import Circuit, Output
from .newton import NewtonResult, newton_solve
from .parser import parse_netlist
from .transient import TransientOptions, TransientResult, transient_analysis
from .waveforms import DC, BitPattern, Pulse, Sine, Waveform, prbs_bits

__all__ = [
    # description
    "Circuit", "Output", "MNASystem", "parse_netlist",
    # devices
    "Device", "Resistor", "Capacitor", "Inductor", "VoltageSource", "CurrentSource",
    "VCVS", "VCCS", "Diode", "MOSFET", "NMOS", "PMOS", "MOSFETParams",
    "CubicConductance",
    # waveforms
    "Waveform", "DC", "Sine", "Pulse", "BitPattern", "prbs_bits",
    # analyses
    "dc_operating_point", "DCResult",
    "ac_analysis", "ACResult", "frequency_grid",
    "transient_analysis", "TransientOptions", "TransientResult",
    "newton_solve", "NewtonResult",
    # compiled assembly + linear algebra
    "CompiledMNA", "LegacyEngine", "select_engine", "SPARSE_THRESHOLD",
    "FactorizationCache", "solve_linear",
]
