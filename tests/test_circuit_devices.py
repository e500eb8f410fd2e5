"""Tests for device stamping and device models."""

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    CubicConductance,
    Diode,
    MOSFETParams,
    NMOS,
    PMOS,
    Resistor,
    VCCS,
    VCVS,
)
from repro.circuit.devices.base import add_at, add_jac
from repro.exceptions import CircuitError


def build_two_node_system(*devices, extra_outputs=("n1",)):
    """Helper: circuit with a driven node n1 and a second node n2."""
    circuit = Circuit("fixture")
    circuit.voltage_source("Vin", "n1", "0", 1.0, is_input=True)
    for dev in devices:
        circuit.add(dev)
    for node in extra_outputs:
        circuit.add_output(f"v_{node}", node)
    return circuit.build()


class TestStampHelpers:
    def test_add_at_skips_ground(self):
        v = np.zeros(2)
        add_at(v, -1, 5.0)
        assert np.all(v == 0.0)

    def test_add_at_accumulates(self):
        v = np.zeros(2)
        add_at(v, 1, 2.0)
        add_at(v, 1, 3.0)
        assert v[1] == 5.0

    def test_add_jac_skips_ground(self):
        m = np.zeros((2, 2))
        add_jac(m, -1, 0, 1.0)
        add_jac(m, 0, -1, 1.0)
        assert np.all(m == 0.0)


class TestResistor:
    def test_positive_resistance_required(self):
        with pytest.raises(CircuitError):
            Resistor("R1", "a", "b", -10.0)

    def test_conductance(self):
        assert Resistor("R1", "a", "b", 200.0).conductance == pytest.approx(5e-3)

    def test_stamp_current_and_jacobian(self):
        system = build_two_node_system(Resistor("R1", "n1", "0", 1e3))
        v = np.zeros(system.n_unknowns)
        v[system.node_index["n1"]] = 2.0
        i_vec, g_mat = system.eval_static(v)
        n1 = system.node_index["n1"]
        assert i_vec[n1] == pytest.approx(2e-3)
        assert g_mat[n1, n1] == pytest.approx(1e-3)


class TestDiode:
    def test_forward_current_matches_shockley(self):
        d = Diode("D1", "a", "0", saturation_current=1e-14)
        i, g = d.current_and_conductance(0.6)
        expected = 1e-14 * (np.exp(0.6 / 0.02585) - 1.0)
        assert i == pytest.approx(expected, rel=1e-6)

    def test_conductance_is_derivative(self):
        d = Diode("D1", "a", "0")
        h = 1e-7
        i1, _ = d.current_and_conductance(0.55 - h)
        i2, _ = d.current_and_conductance(0.55 + h)
        _, g = d.current_and_conductance(0.55)
        assert g == pytest.approx((i2 - i1) / (2 * h), rel=1e-4)

    def test_reverse_bias_small_current(self):
        d = Diode("D1", "a", "0")
        i, g = d.current_and_conductance(-1.0)
        assert abs(i) < 1e-11
        assert g > 0.0

    def test_linearisation_above_critical_voltage(self):
        d = Diode("D1", "a", "0")
        i1, g1 = d.current_and_conductance(1.0)
        i2, g2 = d.current_and_conductance(1.1)
        # In the linearised region the conductance is constant.
        assert g1 == pytest.approx(g2)
        assert i2 - i1 == pytest.approx(g1 * 0.1, rel=1e-9)

    def test_junction_capacitance_decreases_with_reverse_bias(self):
        d = Diode("D1", "a", "0", junction_capacitance=1e-12)
        _, c_fwd = d.charge_and_capacitance(0.2)
        _, c_rev = d.charge_and_capacitance(-2.0)
        assert c_rev < c_fwd

    def test_capacitance_is_charge_derivative(self):
        d = Diode("D1", "a", "0", junction_capacitance=1e-12, transit_time=1e-10)
        h = 1e-6
        q1, _ = d.charge_and_capacitance(0.3 - h)
        q2, _ = d.charge_and_capacitance(0.3 + h)
        _, c = d.charge_and_capacitance(0.3)
        assert c == pytest.approx((q2 - q1) / (2 * h), rel=1e-3)

    def test_is_nonlinear(self):
        assert Diode("D1", "a", "0").is_nonlinear()

    def test_invalid_grading_coefficient(self):
        with pytest.raises(CircuitError):
            Diode("D1", "a", "0", grading_coefficient=1.5)


class TestMOSFET:
    def test_cutoff_current_is_negligible(self):
        m = NMOS("M1", "d", "g", "s", "b", width=1e-6)
        i, gm, gds = m.drain_current(vgs=0.0, vds=1.0)
        assert abs(i) < 1e-6

    def test_saturation_current_square_law(self):
        params = MOSFETParams(width=10e-6, length=1e-6, kp=100e-6, vto=0.4, lam=0.0,
                              smoothing=1e-4)
        m = NMOS("M1", "d", "g", "s", "b", params=params)
        i, gm, gds = m.drain_current(vgs=0.9, vds=1.0)
        expected = 0.5 * params.beta * (0.9 - 0.4) ** 2
        assert i == pytest.approx(expected, rel=0.02)

    def test_gm_matches_numerical_derivative(self):
        m = NMOS("M1", "d", "g", "s", "b", width=5e-6)
        h = 1e-6
        i1, _, _ = m.drain_current(0.7 - h, 0.8)
        i2, _, _ = m.drain_current(0.7 + h, 0.8)
        _, gm, _ = m.drain_current(0.7, 0.8)
        assert gm == pytest.approx((i2 - i1) / (2 * h), rel=1e-3)

    def test_gds_matches_numerical_derivative(self):
        m = NMOS("M1", "d", "g", "s", "b", width=5e-6)
        h = 1e-6
        i1, _, _ = m.drain_current(0.7, 0.8 - h)
        i2, _, _ = m.drain_current(0.7, 0.8 + h)
        _, _, gds = m.drain_current(0.7, 0.8)
        assert gds == pytest.approx((i2 - i1) / (2 * h), rel=1e-3)

    def test_current_continuous_across_vds_zero(self):
        m = NMOS("M1", "d", "g", "s", "b", width=5e-6)
        i_neg, _, gds = m.drain_current(0.7, -1e-6)
        i_pos, _, _ = m.drain_current(0.7, 1e-6)
        # The jump must be explained by the finite conductance, not a kink.
        assert abs(i_pos - i_neg) <= 3.0 * gds * 2e-6
        assert i_pos * i_neg <= 0 or abs(i_pos) < 1e-8

    def test_reverse_operation_antisymmetric(self):
        params = MOSFETParams(width=5e-6, lam=0.0)
        m = NMOS("M1", "d", "g", "s", "b", params=params)
        i_fwd, _, _ = m.drain_current(0.7, 0.3)
        # Swap drain and source: vgs' = vgd = 0.4, vds' = -0.3.
        i_rev, _, _ = m.drain_current(0.4, -0.3)
        assert i_rev == pytest.approx(-i_fwd, rel=1e-9)

    def test_pmos_mirror_of_nmos(self):
        n = NMOS("MN", "d", "g", "s", "b", width=5e-6)
        p = PMOS("MP", "d", "g", "s", "b", width=5e-6)
        i_n, _, _ = n.drain_current(0.8, 0.6)
        i_p, _, _ = p.drain_current(0.8, 0.6)
        assert i_p == pytest.approx(i_n)

    def test_capacitance_values_positive(self):
        params = MOSFETParams(width=10e-6)
        assert params.cgs > 0.0
        assert params.cgd > 0.0

    def test_invalid_polarity_rejected(self):
        from repro.circuit.devices.mosfet import MOSFET
        with pytest.raises(CircuitError):
            MOSFET("M1", "d", "g", "s", "b", polarity=2)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(CircuitError):
            MOSFETParams(width=-1e-6)

    def test_operating_point_reporting(self):
        system = Circuit("op")
        system.voltage_source("VDD", "vdd", "0", 1.2)
        system.voltage_source("Vg", "g", "0", 0.7, is_input=True)
        system.resistor("RD", "vdd", "d", 1e3)
        m = system.nmos("M1", "d", "g", "0", "0", width=5e-6)
        system.add_output("out", "d")
        mna = system.build()
        from repro.circuit import dc_operating_point
        op = dc_operating_point(mna)
        info = m.operating_point(op.solution)
        assert info["id"] > 0.0
        assert info["gm"] > 0.0
        assert info["vgs"] == pytest.approx(0.7)


class TestBehavioralDevices:
    def test_cubic_conductance_saturating(self):
        g = CubicConductance("G1", "a", "0", g1=1e-3, g3=1e-4)
        assert g.is_nonlinear()


class TestControlledSources:
    def test_vcvs_gain(self):
        circuit = Circuit("vcvs")
        circuit.voltage_source("Vin", "in", "0", 0.5, is_input=True)
        circuit.add(VCVS("E1", "out", "0", "in", "0", gain=4.0))
        circuit.resistor("RL", "out", "0", 1e3)
        circuit.add_output("vout", "out")
        from repro.circuit import dc_operating_point
        result = dc_operating_point(circuit.build())
        assert result.outputs[0] == pytest.approx(2.0)

    def test_vccs_output_current(self):
        circuit = Circuit("vccs")
        circuit.voltage_source("Vin", "in", "0", 0.2, is_input=True)
        circuit.add(VCCS("G1", "out", "0", "in", "0", transconductance=1e-3))
        circuit.resistor("RL", "out", "0", 1e4)
        circuit.add_output("vout", "out")
        from repro.circuit import dc_operating_point
        result = dc_operating_point(circuit.build())
        # Current 0.2 mA flows out of 'out' through the source, so the load
        # sees -0.2 mA * 10 kOhm = -2 V.
        assert result.outputs[0] == pytest.approx(-2.0)

    def test_vccs_zero_gm_rejected(self):
        with pytest.raises(CircuitError):
            VCCS("G1", "a", "b", "c", "d", transconductance=0.0)


class TestDeviceBinding:
    def test_unbound_device_raises_on_access(self):
        r = Resistor("R1", "a", "b", 1.0)
        with pytest.raises(CircuitError):
            _ = r.node_index

    def test_empty_name_rejected(self):
        with pytest.raises(CircuitError):
            Resistor("", "a", "b", 1.0)
