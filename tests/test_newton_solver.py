"""Branch coverage for the damped Newton solver and the factor cache."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import repro.circuit.newton as newton_mod
import repro.circuit.transient as transient_mod
from repro.circuit import (FactorizationCache, Sine, TransientOptions, newton_solve,
                           solve_linear, transient_analysis)
from repro.circuits import build_diode_limiter, build_rc_ladder
from repro.exceptions import SingularMatrixError


class TestDampingClamp:
    def test_large_update_is_clamped_to_max_step(self, monkeypatch):
        monkeypatch.setattr(newton_mod, "MAX_STEP", 1.0)
        steps = []

        def f(v):
            steps.append(v[0])
            return np.array([v[0] - 10.0]), np.array([[1.0]])

        result = newton_solve(f, np.array([0.0]), max_iterations=30)
        assert result.converged
        assert result.solution[0] == pytest.approx(10.0)
        # The raw Newton step is 10; the clamp forces unit-sized moves, so the
        # first trial points walk 1.0 at a time.
        assert steps[1] == pytest.approx(1.0)
        assert steps[2] == pytest.approx(2.0)
        assert result.iterations >= 10

    def test_no_clamp_when_step_small(self, monkeypatch):
        monkeypatch.setattr(newton_mod, "MAX_STEP", 1.0)

        def f(v):
            return np.array([v[0] - 0.5]), np.array([[1.0]])

        result = newton_solve(f, np.array([0.0]))
        assert result.converged
        # One productive step plus the confirming zero-update iteration.
        assert result.iterations == 2
        assert result.residual_norm == 0.0


class TestBacktrackingLineSearch:
    def test_backtracks_when_residual_explodes(self, monkeypatch):
        """Scripted residuals force the halving loop to run."""
        monkeypatch.setattr(newton_mod, "MAX_STEP", 10.0)
        evaluations = []

        def f(v):
            x = float(v[0])
            evaluations.append(x)
            # The understated Jacobian (0.1 instead of 1) makes Newton
            # overshoot from 0 to 5, deep into the 1e6 "wall" beyond 0.75;
            # three halvings bring the trial back into the benign region.
            if x > 0.75:
                return np.array([1e6]), np.array([[0.1]])
            return np.array([x - 0.5]), np.array([[0.1]])

        newton_solve(f, np.array([0.0]), max_iterations=1)
        # Initial point, rejected full step and the halving sequence.
        assert evaluations[:5] == [0.0, 5.0, 2.5, 1.25, 0.625]

    def test_backtracking_gives_up_after_four_halvings(self, monkeypatch):
        monkeypatch.setattr(newton_mod, "MAX_STEP", 10.0)
        calls = {"count": 0}

        def f(v):
            calls["count"] += 1
            # First evaluation is fine, every subsequent one is terrible, so
            # the line search halves 4 times and then accepts the bad point.
            if calls["count"] == 1:
                return np.array([1.0]), np.array([[1.0]])
            return np.array([1e9]), np.array([[1.0]])

        result = newton_solve(f, np.array([0.0]), max_iterations=1)
        assert not result.converged
        # 1 initial + 1 full step + 4 backtracks = 6 evaluations.
        assert calls["count"] == 6


class TestSingularAndNonFinite:
    def test_singular_dense_jacobian_raises(self):
        def f(v):
            return np.array([1.0, 1.0]), np.array([[1.0, 1.0], [1.0, 1.0]])

        with pytest.raises(SingularMatrixError, match="iteration 1"):
            newton_solve(f, np.zeros(2))

    def test_singular_sparse_jacobian_raises(self):
        jac = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))

        def f(v):
            return np.array([1.0, 1.0]), jac

        with pytest.raises(SingularMatrixError):
            newton_solve(f, np.zeros(2))

    def test_singular_jacobian_with_cache_raises(self):
        def f(v):
            return np.array([1.0, 1.0]), np.array([[1.0, 1.0], [1.0, 1.0]])

        with pytest.raises(SingularMatrixError):
            newton_solve(f, np.zeros(2), linear_solver=FactorizationCache())

    def test_non_finite_update_raises(self):
        def f(v):
            return np.array([np.inf]), np.array([[1.0]])

        with pytest.raises(SingularMatrixError, match="non-finite"):
            newton_solve(f, np.array([0.0]))


class TestNonConvergenceReporting:
    def test_reports_iterations_and_residual(self, monkeypatch):
        monkeypatch.setattr(newton_mod, "MAX_STEP", 0.5)

        def f(v):
            # No root: f = cos(v) + 2 is always >= 1.
            return np.array([np.cos(v[0]) + 2.0]), np.array([[-np.sin(v[0]) - 1e-3]])

        result = newton_solve(f, np.array([0.1]), max_iterations=7)
        assert not result.converged
        assert result.iterations == 7
        assert result.residual_norm >= 1.0
        assert not bool(result)


class TestFactorizationCache:
    def test_reuses_identical_dense_matrix(self):
        cache = FactorizationCache()
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        x1 = cache.solve(a, b)
        x2 = cache.solve(a.copy(), b)
        assert cache.factorizations == 1
        assert cache.reuses == 1
        assert np.allclose(a @ x1, b) and np.allclose(a @ x2, b)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_any_changed_entry_is_factorised_again(self, sparse):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        b = rng.standard_normal(4)
        kind = sp.csc_matrix if sparse else np.array
        for i, j in np.ndindex(a.shape):
            moved = a.copy()
            moved[i, j] = np.nextafter(moved[i, j], np.inf)
            cache = FactorizationCache()
            cache.solve(kind(a), b)
            x = cache.solve(kind(moved), b)
            assert (cache.factorizations, cache.reuses) == (2, 0), (i, j)
            expected = FactorizationCache().solve(kind(moved), b)
            np.testing.assert_array_equal(x, expected)

    def test_csc_pattern_decides_reuse_not_just_data(self):
        """Equal ``data`` vectors on different patterns are different matrices."""
        cache = FactorizationCache()
        b = np.array([1.0, 2.0])
        cache.solve(sp.csc_matrix(np.array([[2.0, 0.0], [0.0, 3.0]])), b)
        swapped = sp.csc_matrix(np.array([[0.0, 3.0], [2.0, 0.0]]))
        x = cache.solve(swapped, b)
        assert cache.reuses == 0 and cache.factorizations == 2
        np.testing.assert_allclose(x, [1.0, 1.0 / 3.0])

    def test_sparse_reuse_and_refactor(self):
        cache = FactorizationCache()
        a = sp.csc_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
        b = np.array([1.0, 3.0])
        x1 = cache.solve(a, b)
        cache.solve(a.copy(), b)
        assert cache.factorizations == 1 and cache.reuses == 1
        a2 = sp.csc_matrix(np.array([[4.0, 1.0], [0.0, 3.0]]))
        x2 = cache.solve(a2, b)
        assert cache.factorizations == 2
        assert np.allclose(a @ x1, b) and np.allclose(a2.toarray() @ x2, b)

    @pytest.mark.parametrize("entry", ["all-nan", "one-nan", "one-inf"])
    def test_non_finite_pivot_raises_and_caches_nothing(self, entry):
        if entry == "all-nan":
            a = np.full((3, 3), np.nan)
        else:
            a = np.eye(3)
            a[1, 1] = np.nan if entry == "one-nan" else np.inf
        cache = FactorizationCache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):               # nothing cached: factorised again
                with pytest.raises(SingularMatrixError):
                    cache.solve(a, np.ones(3))
        assert cache.factorizations == 2 and cache.reuses == 0
        x = cache.solve(np.eye(3), np.ones(3))
        assert np.array_equal(x, np.ones(3)) and cache.factorizations == 3

    def test_singular_probe_raises_without_warning(self):
        cache = FactorizationCache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError):
                cache.solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))
        assert cache.factorizations == 1

    def test_dense_solve_matches_scipy_lu(self):
        from scipy.linalg import lu_factor, lu_solve
        rng = np.random.default_rng(3)
        for dtype in (float, complex):
            a = rng.standard_normal((27, 27)).astype(dtype)
            b = rng.standard_normal(27).astype(dtype)
            if dtype is complex:
                a = a + 1j * rng.standard_normal((27, 27))
            x = FactorizationCache().solve(a, b)
            assert x.dtype == np.dtype(dtype)
            assert np.array_equal(x, lu_solve(lu_factor(a), b))

    @pytest.mark.parametrize("kind", ["fortran", "float32", "complex"])
    def test_other_layouts_and_dtypes_keep_their_bytes_and_counters(self, kind):
        """Fortran-ordered, float32 and complex matrices solve as
        ``scipy.linalg`` does."""
        from scipy.linalg import lu_factor, lu_solve
        rng = np.random.default_rng(7)
        a = rng.standard_normal((27, 27)) + 5.0 * np.eye(27)
        b = rng.standard_normal(27)
        if kind == "fortran":
            a = np.asfortranarray(a)
        elif kind == "float32":
            a = a.astype(np.float32)
        else:
            a = a + 1j * rng.standard_normal((27, 27))
        cache = FactorizationCache()
        first = cache.solve(a, b)
        again = cache.solve(a.copy(order="K"), b)
        assert (cache.factorizations, cache.reuses, cache.solves) == (1, 1, 2)
        expected = lu_solve(lu_factor(a), b)
        assert first.dtype == expected.dtype
        assert first.tobytes() == again.tobytes() == expected.tobytes()
        if kind == "float32":
            # An equal float64 matrix reuses the float32 factors, as
            # ``np.array_equal`` decides.
            assert cache.solve(a.astype(float), b).tobytes() == expected.tobytes()
            assert (cache.factorizations, cache.reuses) == (1, 2)

    def test_signed_zeros_count_as_equal(self):
        """``-0.0`` and ``+0.0`` are equal entries, as with ``np.array_equal``,
        also where the last differing entry is looked at first."""
        b = np.array([1.0, 2.0])
        cache = FactorizationCache()
        for entry in (5.0, 0.0, -0.0):        # the second moves the probe to [0, 1]
            a = np.array([[2.0, entry], [1.0, 3.0]])
            x = cache.solve(a, b)
        assert (cache.factorizations, cache.reuses) == (2, 1)
        assert x.tobytes() == FactorizationCache().solve(a, b).tobytes()

    def test_solve_linear_sparse_singular(self):
        singular = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            solve_linear(singular, np.ones(2))

    def test_solve_linear_dense_matches_numpy(self):
        a = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, 0.5])
        assert np.allclose(solve_linear(a, b), np.linalg.solve(a, b))


class TestModifiedNewtonOnCircuits:
    def test_linear_transient_factorizes_once(self):
        """A linear circuit's Jacobian is constant: one LU for the whole run."""
        created = []
        original = transient_mod.FactorizationCache

        def spy(*args, **kwargs):
            cache = original(*args, **kwargs)
            created.append(cache)
            return cache

        circuit = build_rc_ladder(3, input_waveform=Sine(0.5, 0.2, 1e6))
        system = circuit.build()
        transient_mod.FactorizationCache = spy
        try:
            transient_analysis(system, TransientOptions(t_stop=1e-6, dt=1e-8))
        finally:
            transient_mod.FactorizationCache = original
        assert len(created) == 1
        cache = created[0]
        # Constant Jacobian -> one factorisation (plus at most one more for
        # the final, fractionally shorter step); everything else is reused.
        assert cache.factorizations <= 2
        assert cache.reuses > 50

    @pytest.mark.parametrize("build", [
        lambda: build_diode_limiter(input_waveform=0.3),
        lambda: build_rc_ladder(70, input_waveform=Sine(0.5, 0.3, 1e6))],
        ids=["diode_limiter", "rc_ladder70"])
    def test_reused_factors_give_the_bits_of_fresh_ones(self, build, monkeypatch):
        """Reuse is for equal matrices only, so a run that factorises every
        Jacobian afresh is byte-equal to one that reuses factors."""
        options = TransientOptions(t_stop=1e-6, dt=1e-8)
        reusing = transient_analysis(build().build(), options)

        class NeverReuses(FactorizationCache):
            def solve(self, matrix, rhs):
                return FactorizationCache().solve(matrix, rhs)

        monkeypatch.setattr(transient_mod, "FactorizationCache", NeverReuses)
        fresh = transient_analysis(build().build(), options)
        assert reusing.cache_reuses > 0 and fresh.cache_solves == 0
        assert reusing.newton_iterations == fresh.newton_iterations
        np.testing.assert_array_equal(reusing.times, fresh.times)
        np.testing.assert_array_equal(reusing.states.view(np.uint64),
                                      fresh.states.view(np.uint64))


class TestSingularThreshold:
    def test_near_singular_pivot_tolerated_by_default(self):
        def f(v):
            return np.array([v[0] - 1.0, 1e-15 * v[1]]), \
                np.array([[1.0, 0.0], [0.0, 1e-15]])

        result = newton_solve(f, np.zeros(2), max_iterations=3)
        assert np.isfinite(result.solution).all()
