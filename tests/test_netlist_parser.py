"""Tests for the SPICE-like netlist parser."""

import pytest

from repro.circuit import dc_operating_point, parse_netlist
from repro.circuit.devices import Diode, NMOS, PMOS
from repro.circuit.waveforms import DC, Pulse, Sine
from repro.exceptions import NetlistParseError


BASIC = """
.title simple divider
* a comment line
Vin in 0 DC 2.0 INPUT
R1 in out 1k
R2 out 0 1k ; trailing comment
.output vout out
.end
"""


class TestBasicParsing:
    def test_title_becomes_name(self):
        assert parse_netlist(BASIC).name == "simple divider"

    def test_device_count(self):
        circuit = parse_netlist(BASIC)
        assert len(circuit) == 3

    def test_values_with_suffixes(self):
        circuit = parse_netlist(BASIC)
        assert circuit.device("R1").resistance == pytest.approx(1e3)

    def test_input_flag(self):
        circuit = parse_netlist(BASIC)
        assert circuit.device("Vin").is_input

    def test_output_registered(self):
        circuit = parse_netlist(BASIC)
        assert circuit.outputs[0].name == "vout"
        assert circuit.outputs[0].positive == "out"

    def test_parsed_circuit_simulates(self):
        result = dc_operating_point(parse_netlist(BASIC).build())
        assert result.outputs[0] == pytest.approx(1.0)

    def test_comments_and_blank_lines_ignored(self):
        text = "* only comments\n\n" + BASIC
        assert len(parse_netlist(text)) == 3

    def test_continuation_lines(self):
        text = """
V1 a 0 DC 1.0 INPUT
R1 a
+ 0 2k
.output va a
"""
        circuit = parse_netlist(text)
        assert circuit.device("R1").resistance == pytest.approx(2e3)


class TestSourceCards:
    def test_sin_source(self):
        text = """
Vin in 0 SIN(0.9 0.5 50meg) INPUT
R1 in 0 1k
.output v in
"""
        wave = parse_netlist(text).device("Vin").waveform
        assert isinstance(wave, Sine)
        assert wave.offset == pytest.approx(0.9)
        assert wave.amplitude == pytest.approx(0.5)
        assert wave.frequency == pytest.approx(50e6)

    def test_pulse_source(self):
        text = """
Vin in 0 PULSE(0 1.2 1n 10p 10p 400p 800p)
Vdrv d 0 DC 0 INPUT
R1 in d 1k
.output v in
"""
        wave = parse_netlist(text).device("Vin").waveform
        assert isinstance(wave, Pulse)
        assert wave.pulsed == pytest.approx(1.2)
        assert wave.period == pytest.approx(800e-12)

    def test_dc_source_default(self):
        text = """
V1 a 0 1.5
I1 a 0 DC 1m INPUT
R1 a 0 1k
.output v a
"""
        circuit = parse_netlist(text)
        assert isinstance(circuit.device("V1").waveform, DC)
        assert circuit.device("V1").waveform.level == pytest.approx(1.5)
        assert circuit.device("I1").waveform.level == pytest.approx(1e-3)

    def test_malformed_sin_raises(self):
        text = "Vin a 0 SIN(1.0) INPUT\nR1 a 0 1k\n.output v a\n"
        with pytest.raises(NetlistParseError):
            parse_netlist(text)


class TestDeviceCards:
    def test_diode_with_model(self):
        text = """
.model dfast D (is=1e-15 n=1.2 cjo=0.5p tt=10p)
Vin a 0 DC 1 INPUT
D1 a 0 dfast
.output v a
"""
        diode = parse_netlist(text).device("D1")
        assert isinstance(diode, Diode)
        assert diode.saturation_current == pytest.approx(1e-15)
        assert diode.junction_capacitance == pytest.approx(0.5e-12)

    def test_mosfet_with_model_and_geometry(self):
        text = """
.model nch NMOS (kp=250u vto=0.4 lambda=0.1)
.model pch PMOS (kp=100u vto=0.4)
VDD vdd 0 1.2
Vin g 0 DC 0.6 INPUT
M1 d g 0 0 nch W=10u L=0.2u
M2 d g vdd vdd pch W=20u L=0.2u
R1 d 0 10k
.output v d
"""
        circuit = parse_netlist(text)
        m1, m2 = circuit.device("M1"), circuit.device("M2")
        assert isinstance(m1, NMOS)
        assert isinstance(m2, PMOS)
        assert m1.params.width == pytest.approx(10e-6)
        assert m1.params.kp == pytest.approx(250e-6)
        assert m1.params.vto == pytest.approx(0.4)

    def test_unknown_mosfet_model_raises(self):
        text = "M1 d g 0 0 missing\n.output v d\n"
        with pytest.raises(NetlistParseError):
            parse_netlist(text)

    def test_controlled_sources(self):
        text = """
Vin in 0 DC 1 INPUT
E1 a 0 in 0 2.0
G1 b 0 in 0 1m
R1 a 0 1k
R2 b 0 1k
.output va a
"""
        circuit = parse_netlist(text)
        assert circuit.device("E1").gain == pytest.approx(2.0)
        assert circuit.device("G1").transconductance == pytest.approx(1e-3)

    def test_unsupported_card_raises(self):
        with pytest.raises(NetlistParseError):
            parse_netlist("X1 a b sub\n.output v a\n")

    def test_malformed_card_raises_with_line_number(self):
        with pytest.raises(NetlistParseError) as excinfo:
            parse_netlist("R1 a 0\n.output v a\n")
        assert "line 1" in str(excinfo.value)

    def test_end_card_stops_parsing(self):
        text = BASIC + "\nR99 x 0 1k\n"
        circuit = parse_netlist(text)
        with pytest.raises(Exception):
            circuit.device("R99")
