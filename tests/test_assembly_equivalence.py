"""Dense / sparse / legacy assembly equivalence on randomised MNA systems.

The compiled engine (:mod:`repro.circuit.assembly`) must be an exact drop-in
for the legacy per-device dense stamping: same matrices, same DC operating
points, same AC responses and same transient trajectories.  These tests build
randomised RC/nonlinear networks with hypothesis and assert the three
assembly backends agree to tight tolerance for every analysis.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import (
    Circuit,
    CubicConductance,
    Sine,
    TransientOptions,
    ac_analysis,
    dc_operating_point,
    frequency_grid,
    transient_analysis,
)
import repro.circuit.linalg as linalg
from repro.circuit.assembly import CompiledMNA
from repro.circuits import build_rc_ladder

SETTINGS = dict(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def random_network(n_sections: int, resistances, capacitances, nonlinear_flags,
                   diode_at: int | None = None) -> Circuit:
    """Driven ladder with optional cubic shunts and one optional diode."""
    circuit = Circuit("random_net")
    circuit.voltage_source("Vin", "n0", "0", Sine(0.5, 0.3, 1e6), is_input=True)
    for k in range(1, n_sections + 1):
        circuit.resistor(f"R{k}", f"n{k - 1}", f"n{k}", resistances[k - 1])
        circuit.capacitor(f"C{k}", f"n{k}", "0", capacitances[k - 1])
        if nonlinear_flags[k - 1]:
            circuit.add(CubicConductance(f"Gnl{k}", f"n{k}", "0",
                                         g1=1e-3, g3=2e-4))
        if diode_at == k:
            circuit.diode(f"D{k}", f"n{k}", "0", junction_capacitance=1e-12)
    circuit.add_output("vout", f"n{n_sections}")
    return circuit


ladder_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.floats(min_value=50.0, max_value=5e4), min_size=n, max_size=n),
        st.lists(st.floats(min_value=1e-12, max_value=1e-8), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.one_of(st.none(), st.integers(min_value=1, max_value=n)),
    ))


class TestMatrixEquivalence:
    @given(ladder_strategy)
    @settings(**SETTINGS)
    def test_compiled_matrices_match_legacy(self, spec):
        n, res, caps, nl, diode_at = spec
        system = random_network(n, res, caps, nl, diode_at).build()
        rng = np.random.default_rng(42)
        v = rng.normal(scale=0.4, size=system.n_unknowns)
        i_ref, g_ref = system.eval_static(v)
        q_ref, c_ref = system.eval_dynamic(v)
        for mode in ("dense", "sparse"):
            engine = CompiledMNA(system, sparse=(mode == "sparse"))
            i_cmp, g_op = engine.eval_static(v)
            q_cmp, c_op = engine.eval_dynamic(v)
            np.testing.assert_allclose(i_cmp, i_ref, rtol=1e-10, atol=1e-14, err_msg=mode)
            np.testing.assert_allclose(q_cmp, q_ref, rtol=1e-10, atol=1e-16, err_msg=mode)
            np.testing.assert_allclose(engine.to_dense(g_op), g_ref,
                                       rtol=1e-10, atol=1e-14, err_msg=mode)
            np.testing.assert_allclose(engine.to_dense(c_op), c_ref,
                                       rtol=1e-10, atol=1e-18, err_msg=mode)


class TestDCEquivalence:
    @given(ladder_strategy)
    @settings(**SETTINGS)
    def test_dc_operating_point_matches(self, spec):
        n, res, caps, nl, diode_at = spec
        system = random_network(n, res, caps, nl, diode_at).build()
        reference = dc_operating_point(system, assembly="legacy")
        for mode in ("dense", "sparse"):
            result = dc_operating_point(system, assembly=mode)
            np.testing.assert_allclose(result.solution, reference.solution,
                                       rtol=1e-7, atol=1e-9, err_msg=mode)


class TestACEquivalence:
    @given(ladder_strategy)
    @settings(**SETTINGS)
    def test_ac_response_matches(self, spec):
        n, res, caps, nl, diode_at = spec
        system = random_network(n, res, caps, nl, diode_at).build()
        grid = frequency_grid(1e3, 1e9, 4)
        reference = ac_analysis(system, grid, assembly="legacy")
        for mode in ("dense", "sparse"):
            result = ac_analysis(system, grid, assembly=mode)
            scale = np.max(np.abs(reference.response))
            np.testing.assert_allclose(result.response, reference.response,
                                       rtol=1e-7, atol=1e-9 * scale, err_msg=mode)


class TestTransientEquivalence:
    @given(ladder_strategy)
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_transient_trajectory_matches(self, spec):
        n, res, caps, nl, diode_at = spec
        circuit = random_network(n, res, caps, nl, diode_at)
        reference = transient_analysis(
            circuit.build(), TransientOptions(t_stop=2e-7, dt=2e-9,
                                              assembly="legacy"))
        span = float(reference.outputs.max() - reference.outputs.min()) or 1.0
        for mode in ("dense", "sparse"):
            result = transient_analysis(
                circuit.build(), TransientOptions(t_stop=2e-7, dt=2e-9,
                                                  assembly=mode))
            assert result.n_points == reference.n_points, mode
            np.testing.assert_allclose(result.outputs, reference.outputs,
                                       rtol=1e-6, atol=1e-7 * span, err_msg=mode)


class TestEngineCacheInvalidation:
    def test_invalidate_compiled_picks_up_device_mutation(self):
        circuit = build_rc_ladder(2, resistance=1e3, capacitance=1e-9,
                                  input_waveform=Sine(0.5, 0.1, 1e5))
        system = circuit.build()
        ac_analysis(system, frequency_grid(1e3, 1e8, 4))  # compiles + caches
        resistor = next(d for d in circuit.devices if d.name == "R1")
        resistor.resistance = 5e3
        system.invalidate_compiled()
        refreshed = ac_analysis(system, frequency_grid(1e3, 1e8, 4))
        reference = ac_analysis(system, frequency_grid(1e3, 1e8, 4),
                                assembly="legacy")
        np.testing.assert_allclose(refreshed.response, reference.response,
                                   rtol=1e-9, atol=1e-12)


class TestBatchedTransferChunking:
    def test_chunked_solve_matches_unchunked(self, monkeypatch):
        from repro.circuit.linalg import batched_transfer
        system = build_rc_ladder(4, input_waveform=Sine(0.5, 0.1, 1e5)).build()
        _, g = system.eval_static(system.zero_state())
        _, c = system.eval_dynamic(system.zero_state())
        s_values = 2j * np.pi * frequency_grid(1e3, 1e9, 4)
        full = batched_transfer(g, c, s_values, system.input_matrix,
                                system.output_matrix)
        monkeypatch.setattr(linalg, "MAX_CHUNK_BYTES", 1)
        tiny_chunks = batched_transfer(g, c, s_values, system.input_matrix,
                                       system.output_matrix)
        np.testing.assert_allclose(tiny_chunks, full, rtol=0, atol=0)


def expression_transfer(g_mat, c_mat, s_values, input_matrix, output_matrix):
    """Reference ``D^T (G + s C)^{-1} B``: the stack formed as ``G + s*C``."""
    systems = g_mat[None, :, :] + s_values[:, None, None] * c_mat[None, :, :]
    rhs = np.broadcast_to(input_matrix.astype(complex),
                          (s_values.size,) + input_matrix.shape)
    return np.einsum("no,fni->foi", output_matrix, np.linalg.solve(systems, rhs))


class TestInPlaceTransferStack:
    """``batched_transfer`` builds G + sC in place, with the same bits."""

    @pytest.mark.parametrize("chunk", ["one", "several"])
    def test_buffer_snapshots_bitwise_equal_expression_form(self, buffer_trajectory,
                                                            buffer_tft, chunk, monkeypatch):
        from repro.circuit.linalg import batched_transfer
        s_values = 2j * np.pi * buffer_tft.frequencies
        b, d = buffer_trajectory.input_matrix, buffer_trajectory.output_matrix
        n = b.shape[0]
        # Seven frequencies per chunk: 41 frequencies take six chunks.
        monkeypatch.setattr(linalg, "MAX_CHUNK_BYTES",
                            (64 << 20) if chunk == "one" else 16 * n * n * 7)
        for snapshot in buffer_trajectory.snapshots[::10]:
            g, c = snapshot.conductance, snapshot.capacitance
            got = batched_transfer(g, c, s_values, b, d)
            expected = expression_transfer(g, c, s_values, b, d)
            assert np.array_equal(got.view(float), expected.view(float))

    def test_general_complex_s_matches_expression_form(self, buffer_trajectory,
                                                       monkeypatch):
        from repro.circuit.linalg import batched_transfer
        snapshot = buffer_trajectory.snapshots[40]
        omega = 2 * np.pi * frequency_grid(1e3, 1e10, 4)
        s_values = -0.3 * omega + 1j * omega
        b, d = buffer_trajectory.input_matrix, buffer_trajectory.output_matrix
        for max_chunk_bytes in (64 << 20, 1):
            monkeypatch.setattr(linalg, "MAX_CHUNK_BYTES", max_chunk_bytes)
            got = batched_transfer(snapshot.conductance, snapshot.capacitance,
                                   s_values, b, d)
            expected = expression_transfer(snapshot.conductance, snapshot.capacitance,
                                           s_values, b, d)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestDiodeGroupEquivalence:
    """The vectorised diode group must be an exact drop-in for the scalar path."""

    @pytest.fixture(scope="class")
    def limiter_system(self):
        from repro.circuits import build_diode_limiter
        return build_diode_limiter(input_waveform=Sine(0.0, 0.6, 2e6)).build()

    def test_diodes_grouped(self, limiter_system):
        engine = CompiledMNA(limiter_system, sparse=False)
        assert len(engine._diodes.devices) == 2
        assert not engine._nl_static

    @pytest.mark.parametrize("sparse", [False, True])
    def test_matrices_match_across_bias(self, limiter_system, sparse):
        engine = CompiledMNA(limiter_system, sparse=sparse)
        rng = np.random.default_rng(11)
        for _ in range(5):
            # Spans reverse bias, the exponential region and beyond v_crit.
            v = rng.uniform(-1.5, 1.5, limiter_system.n_unknowns)
            i_ref, g_ref = limiter_system.eval_static(v)
            i_cmp, g_op = engine.eval_static(v)
            np.testing.assert_allclose(i_cmp, i_ref, rtol=1e-12, atol=1e-18)
            np.testing.assert_allclose(engine.to_dense(g_op), g_ref,
                                       rtol=1e-12, atol=1e-18)

    def test_transient_matches_legacy(self, limiter_system):
        common = dict(t_stop=2e-7, dt=1e-9)
        compiled = transient_analysis(limiter_system, TransientOptions(**common))
        legacy = transient_analysis(limiter_system,
                                    TransientOptions(assembly="legacy", **common))
        span = float(legacy.outputs.max() - legacy.outputs.min()) or 1.0
        np.testing.assert_allclose(compiled.outputs, legacy.outputs,
                                   rtol=0, atol=5e-5 * span)


class TestThreadedSparseTransfer:
    def test_threaded_sparse_sweep_matches_legacy(self):
        system = build_rc_ladder(80, input_waveform=Sine(0.5, 0.1, 1e6)).build()
        v = np.zeros(system.n_unknowns)
        freqs = frequency_grid(1e3, 1e9, 8)        # enough to engage the pool
        threaded = system.transfer_function(v, freqs, assembly="sparse")
        legacy = system.transfer_function(v, freqs, assembly="legacy")
        np.testing.assert_allclose(threaded, legacy, rtol=1e-8, atol=1e-14)

    def test_few_frequencies_match(self):
        system = build_rc_ladder(80, input_waveform=Sine(0.5, 0.1, 1e6)).build()
        v = np.zeros(system.n_unknowns)
        freqs = np.array([1e5, 1e7])
        threaded = system.transfer_function(v, freqs, assembly="sparse")
        legacy = system.transfer_function(v, freqs, assembly="legacy")
        np.testing.assert_allclose(threaded, legacy, rtol=1e-8, atol=1e-14)

    def test_usable_cores_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(linalg._os, "cpu_count", lambda: 64)
        monkeypatch.setattr(linalg._os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        assert linalg.usable_cores() == 1
        monkeypatch.delattr(linalg._os, "sched_getaffinity", raising=False)
        assert linalg.usable_cores() == 64

    @pytest.mark.parametrize("n_freq", [2, 9])
    def test_one_usable_core_runs_inline_with_the_same_bytes(self, monkeypatch, n_freq):
        system = build_rc_ladder(80, input_waveform=Sine(0.5, 0.1, 1e6)).build()
        v = np.linspace(0.0, 0.5, system.n_unknowns)
        freqs = frequency_grid(1e3, 1e9, 8)[:n_freq]
        monkeypatch.setattr(linalg, "usable_cores", lambda: 3)
        threaded = system.transfer_function(v, freqs, assembly="sparse")

        def no_pool(*args, **kwargs):
            raise AssertionError("one usable core must run inline, without a pool")

        monkeypatch.setattr(linalg, "usable_cores", lambda: 1)
        monkeypatch.setattr(linalg, "ThreadPoolExecutor", no_pool)
        inline = system.transfer_function(v, freqs, assembly="sparse")
        np.testing.assert_array_equal(inline.view(np.uint64), threaded.view(np.uint64))


class TestBufferEquivalence:
    """The paper's buffer: MOSFET-heavy, exercises the vectorised group."""

    @pytest.fixture(scope="class")
    def buffer_system(self):
        from repro.circuits import build_output_buffer, buffer_training_waveform
        return build_output_buffer(
            input_waveform=buffer_training_waveform()).build()

    def test_matrices_match(self, buffer_system):
        rng = np.random.default_rng(7)
        v = rng.normal(loc=0.5, scale=0.3, size=buffer_system.n_unknowns)
        i_ref, g_ref = buffer_system.eval_static(v)
        q_ref, c_ref = buffer_system.eval_dynamic(v)
        for mode in (False, True):
            engine = CompiledMNA(buffer_system, sparse=mode)
            i_cmp, g_op = engine.eval_static(v)
            q_cmp, c_op = engine.eval_dynamic(v)
            np.testing.assert_allclose(i_cmp, i_ref, rtol=1e-9, atol=1e-15)
            np.testing.assert_allclose(q_cmp, q_ref, rtol=1e-9, atol=1e-20)
            np.testing.assert_allclose(engine.to_dense(g_op), g_ref,
                                       rtol=1e-9, atol=1e-15)
            np.testing.assert_allclose(engine.to_dense(c_op), c_ref,
                                       rtol=1e-9, atol=1e-22)

    def test_transient_matches_legacy(self, buffer_system):
        from repro.circuits import buffer_training_waveform
        period = 1.0 / buffer_training_waveform().frequency
        options = dict(t_stop=period / 20, dt=period / 200)
        reference = transient_analysis(buffer_system,
                                       TransientOptions(assembly="legacy", **options))
        result = transient_analysis(buffer_system,
                                    TransientOptions(**options))
        assert result.n_points == reference.n_points
        span = float(reference.outputs.max() - reference.outputs.min()) or 1.0
        np.testing.assert_allclose(result.outputs, reference.outputs,
                                   rtol=0, atol=5e-5 * span)
