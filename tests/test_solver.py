"""Thomas elimination, time marching, runtime audits."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from layersolve import (CheckPolicy, CheckWarning, DiscreteSolution,
                        MMatrixViolation, NonFiniteValue, PerturbationParams,
                        PiecewiseField, ProblemSpec, StabilityViolation,
                        TridiagonalSystem, ZeroPivot, assemble, ThomasFactors,
                        derive_regime, lookup, march, residual_max_norm,
                        spatial_mesh_for, stability_audit, thomas_factor,
                        thomas_solve, uniform_mesh, uniform_time_grid)


def random_dominant_system(rng, size):
    sub = rng.uniform(-1.0, 1.0, size)
    sup = rng.uniform(-1.0, 1.0, size)
    sub[0] = 0.0
    sup[-1] = 0.0
    diag = np.abs(sub) + np.abs(sup) + rng.uniform(0.5, 2.0, size)
    diag *= rng.choice([-1.0, 1.0], size)
    rhs = rng.uniform(-10.0, 10.0, size)
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)


def dense_solve(sys):
    n = sys.size
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = sys.diag[i]
        if i > 0:
            a[i, i - 1] = sys.sub[i]
        if i < n - 1:
            a[i, i + 1] = sys.sup[i]
    return np.linalg.solve(a, sys.rhs)


def zero_data_spec(epsilon=1e-8, mu=1e-6):
    return ProblemSpec(
        a=PiecewiseField(left=lambda x, t: -(1.0 + x * (1.0 - x)),
                         right=lambda x, t: 1.0 + x * (1.0 - x), d=0.5),
        f=PiecewiseField(left=lambda x, t: 0.0 * x, right=lambda x, t: 0.0 * x,
                         d=0.5),
        b=lambda x, t: 1.0 + np.exp(x), c=lambda x, t: 1.0,
        p=lambda t: 0.0, r=lambda t: 0.0, q=lambda x: 0.0 * x,
        d=0.5, t_final=1.0, params=PerturbationParams(epsilon, mu),
        alpha1=1.0, alpha2=1.0, beta=2.0, eta=1.0)


def with_b(base, b):
    return ProblemSpec(a=base.a, f=base.f, b=b, c=base.c, p=base.p, r=base.r,
                       q=base.q, d=base.d, t_final=base.t_final,
                       params=base.params, alpha1=base.alpha1,
                       alpha2=base.alpha2, beta=base.beta, eta=base.eta)


def lying_beta_case():
    """example1 with beta declared far above its reaction floor, and its mesh.

    The audit bound then sits below the true solution scale from step j=1 on.
    """
    base = lookup("example1", 1e-5, 1e-4)
    lying = ProblemSpec(
        a=base.a, f=base.f, b=base.b, c=base.c, p=base.p, r=base.r,
        q=base.q, d=base.d, t_final=base.t_final, params=base.params,
        alpha1=1.0, alpha2=1.0, beta=5000.0, eta=1.0)
    return lying, spatial_mesh_for(derive_regime(base), base.params, 32, 0.5)


def per_step_stream(spec, mesh, grid):
    """Assemble and solve every step afresh, as march did before reuse."""
    n = mesh.n
    values = np.empty((grid.m + 1, n + 1))
    values[0] = np.broadcast_to(np.asarray(spec.q(mesh.points), float), (n + 1,))
    for j in range(grid.m):
        sys = assemble(spec, mesh, float(grid.times[j + 1]), grid.dt, values[j])
        u = thomas_solve(sys)
        u[0] = sys.rhs[0]
        u[n] = sys.rhs[n]
        values[j + 1] = u
    return values


class TestThomasSolve:
    def test_identity_returns_rhs(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=12)
        sys = TridiagonalSystem(sub=np.zeros(12), diag=np.ones(12),
                                sup=np.zeros(12), rhs=v.copy())
        assert np.array_equal(thomas_solve(sys), v)

    def test_laplacian_recovers_known_solution(self):
        n = 40
        x_true = np.arange(1.0, n + 1.0)
        sub = np.full(n, -1.0)
        sup = np.full(n, -1.0)
        diag = np.full(n, 2.0)
        sub[0] = 0.0
        sup[-1] = 0.0
        sys_tmp = TridiagonalSystem(sub=sub, diag=diag, sup=sup,
                                    rhs=np.zeros(n))
        rhs = sys_tmp.apply(x_true)
        sys = TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)
        np.testing.assert_allclose(thomas_solve(sys), x_true, rtol=1e-12)

    def test_random_systems_match_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            sys = random_dominant_system(rng, int(rng.integers(3, 60)))
            x = thomas_solve(sys)
            np.testing.assert_allclose(x, dense_solve(sys), rtol=1e-12,
                                       atol=1e-14)

    def test_zero_pivot_reports_row(self):
        sys = TridiagonalSystem(sub=np.array([0.0, 1.0, 1.0]),
                                diag=np.array([0.0, 2.0, 2.0]),
                                sup=np.array([1.0, 1.0, 0.0]),
                                rhs=np.ones(3))
        with pytest.raises(ZeroPivot) as err:
            thomas_solve(sys)
        assert err.value.row == 0

    def test_rejects_tiny_systems(self):
        sys = TridiagonalSystem(sub=np.zeros(2), diag=np.ones(2),
                                sup=np.zeros(2), rhs=np.ones(2))
        with pytest.raises(ValueError):
            thomas_solve(sys)

    def test_factor_solve_is_bitwise_thomas_solve(self):
        rng = np.random.default_rng(5)
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        systems = [random_dominant_system(rng, int(rng.integers(3, 60)))
                   for _ in range(10)]
        systems.append(assemble(spec, mesh, 0.5, 1.0 / 64,
                                np.sin(3.0 * mesh.points)))
        # rows scaled by 10^-150..10^150, all-negative and mixed-sign
        # diagonals: factor forms its pivots elementwise, so a rounding
        # that differs from the elimination loop shows here
        for size in (3, 17, 640, 4097):
            base = random_dominant_system(rng, size)
            scale = 10.0 ** rng.uniform(-150.0, 150.0, size)
            for diag in (base.diag, -np.abs(base.diag)):
                systems.append(TridiagonalSystem(
                    sub=base.sub * scale, diag=diag * scale,
                    sup=base.sup * scale, rhs=base.rhs * scale))
        for sys in systems:
            assert (thomas_factor(sys).solve(sys.rhs).tobytes()
                    == thomas_solve(sys).tobytes())

    @pytest.mark.parametrize("diag,row", [([0.0, 2.0, 2.0], 0),
                                          ([1.0, 1.0, 2.0], 1)])
    def test_factor_raises_zero_pivot_where_solve_does(self, diag, row):
        sys = TridiagonalSystem(sub=np.array([0.0, 1.0, 1.0]),
                                diag=np.array(diag),
                                sup=np.array([1.0, 1.0, 0.0]),
                                rhs=np.ones(3))
        for solve in (thomas_solve, thomas_factor):
            with pytest.raises(ZeroPivot) as err:
                solve(sys)
            assert err.value.row == row

    def test_factor_rejects_tiny_systems_and_wrong_rhs(self):
        tiny = TridiagonalSystem(sub=np.zeros(2), diag=np.ones(2),
                                 sup=np.zeros(2), rhs=np.ones(2))
        with pytest.raises(ValueError):
            thomas_factor(tiny)
        sys = TridiagonalSystem(sub=np.zeros(3), diag=np.ones(3),
                                sup=np.zeros(3), rhs=np.ones(3))
        with pytest.raises(ValueError):
            thomas_factor(sys).solve(np.ones(4))
        f = thomas_factor(sys)
        for n_sub, n_rest in ((2, 3), (2, 2)):  # mismatched, too short
            with pytest.raises(ValueError):
                ThomasFactors(sub=f.sub[:n_sub], piv=f.piv[:n_rest], c=f.c[:n_rest])

    def test_residual_within_tolerance_on_assembled_step(self):
        spec = lookup("example1", 1e-8, 1e-6)
        from layersolve import assemble
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        sys = assemble(spec, mesh, 1.0 / 64, 1.0 / 64, np.zeros(65))
        x = thomas_solve(sys)
        tol = 1e-10 * (1.0 + float(np.max(np.abs(sys.rhs))))
        assert residual_max_norm(sys, x) <= tol


class TestMarch:
    def test_zero_data_yields_identically_zero(self):
        spec = zero_data_spec()
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, 0.5)
        sol = march(spec, mesh, uniform_time_grid(1.0, 8),
                    CheckPolicy.strict_policy())
        assert np.array_equal(sol.values, np.zeros_like(sol.values))

    def test_steady_discrete_solution_is_fixed_point(self):
        # steady system (eps d2 + mu a D* - b) U = f assembled independently,
        # then used as initial data for a march with time-independent forcing
        spec = ProblemSpec(
            a=PiecewiseField(left=lambda x, t: -(1.0 + x * (1.0 - x)),
                             right=lambda x, t: 1.0 + x * (1.0 - x), d=0.5),
            f=PiecewiseField(left=lambda x, t: -2.0 * (1.0 + x * x),
                             right=lambda x, t: 2.0 * (1.0 + x * x), d=0.5),
            b=lambda x, t: 1.0 + np.exp(x), c=lambda x, t: 1.0,
            p=lambda t: 0.0, r=lambda t: 0.0, q=lambda x: 0.0 * x,
            d=0.5, t_final=1.0, params=PerturbationParams(1e-6, 1e-4),
            alpha1=1.0, alpha2=1.0, beta=2.0, eta=1.0)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        x = mesh.points
        n = mesh.n
        eps, mu = spec.params.epsilon, spec.params.mu
        sub = np.zeros(n + 1)
        diag = np.zeros(n + 1)
        sup = np.zeros(n + 1)
        rhs = np.zeros(n + 1)
        diag[0] = diag[n] = 1.0
        for i in range(1, n):
            hi, hi1 = x[i] - x[i - 1], x[i + 1] - x[i]
            if i == n // 2:
                sub[i], diag[i], sup[i] = -1.0 / hi, 1.0 / hi + 1.0 / hi1, -1.0 / hi1
                continue
            if i < n // 2:
                a_v = float(spec.a.left(x[i], 0.0))
                f_v = float(spec.f.left(x[i], 0.0))
            else:
                a_v = float(spec.a.right(x[i], 0.0))
                f_v = float(spec.f.right(x[i], 0.0))
            b_v = float(spec.b(x[i], 0.0))
            wm = 2 * eps / (hi * (hi + hi1))
            wp = 2 * eps / (hi1 * (hi + hi1))
            wc = -2 * eps / (hi * hi1) - b_v
            if i < n // 2:
                wm += -mu * a_v / hi
                wc += mu * a_v / hi
            else:
                wp += mu * a_v / hi1
                wc += -mu * a_v / hi1
            sub[i], diag[i], sup[i], rhs[i] = -wm, -wc, -wp, -f_v
        steady = thomas_solve(TridiagonalSystem(sub=sub, diag=diag, sup=sup,
                                                rhs=rhs))
        spec_from_steady = ProblemSpec(
            a=spec.a, f=spec.f, b=spec.b, c=spec.c, p=spec.p, r=spec.r,
            q=lambda xx: np.interp(xx, x, steady), d=spec.d,
            t_final=spec.t_final, params=spec.params, alpha1=1.0, alpha2=1.0,
            beta=2.0, eta=1.0)
        sol = march(spec_from_steady, mesh, uniform_time_grid(1.0, 6),
                    CheckPolicy())
        for j in range(1, 7):
            np.testing.assert_allclose(sol.values[j], sol.values[0],
                                       rtol=0, atol=1e-10)

    def test_boundary_values_assigned_exactly(self):
        spec = ProblemSpec(
            a=PiecewiseField(left=lambda x, t: -1.0 + 0.0 * x,
                             right=lambda x, t: 1.0 + 0.0 * x, d=0.5),
            f=PiecewiseField(left=lambda x, t: 0.0 * x,
                             right=lambda x, t: 0.0 * x, d=0.5),
            b=lambda x, t: 1.0, c=lambda x, t: 1.0,
            p=lambda t: math.sin(t), r=lambda t: t * t,
            q=lambda x: 0.0 * x, d=0.5, t_final=1.0,
            params=PerturbationParams(0.01, 0.1),
            alpha1=1.0, alpha2=1.0, beta=1.0, eta=1.0)
        mesh = uniform_mesh(16)
        grid = uniform_time_grid(1.0, 10)
        sol = march(spec, mesh, grid, CheckPolicy())
        for j in range(1, 11):
            assert sol.values[j][0] == math.sin(float(grid.times[j]))
            assert sol.values[j][16] == float(grid.times[j]) ** 2

    def test_determinism_bit_identical(self):
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, 0.5)
        grid = uniform_time_grid(1.0, 16)
        a = march(spec, mesh, grid, CheckPolicy())
        b = march(spec, mesh, grid, CheckPolicy())
        assert np.array_equal(a.values, b.values)

    def test_linearity_in_the_data(self):
        alpha = -2.5
        base = lookup("example1", 1e-8, 1e-6)
        scaled = ProblemSpec(
            a=base.a,
            f=PiecewiseField(
                left=lambda x, t: alpha * -2.0 * (1.0 + x * x) * t,
                right=lambda x, t: alpha * 2.0 * (1.0 + x * x) * t, d=0.5),
            b=base.b, c=base.c,
            p=lambda t: 0.0, r=lambda t: 0.0, q=lambda x: 0.0 * x,
            d=0.5, t_final=1.0, params=base.params,
            alpha1=1.0, alpha2=1.0, beta=2.0, eta=1.0)
        mesh = spatial_mesh_for(derive_regime(base), base.params, 32, 0.5)
        grid = uniform_time_grid(1.0, 16)
        sol = march(base, mesh, grid, CheckPolicy())
        sol_scaled = march(scaled, mesh, grid, CheckPolicy())
        scale = np.max(np.abs(sol_scaled.values))
        np.testing.assert_allclose(sol_scaled.values, alpha * sol.values,
                                   rtol=0, atol=1e-10 * (1.0 + scale))

    @pytest.mark.parametrize("eps,mu,key", [(1e-8, 1e-6, "example1"),
                                            (1e-12, 1e-8, "example2")])
    def test_discrete_transmission_enforced(self, eps, mu, key):
        spec = lookup(key, eps, mu)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        sol = march(spec, mesh, uniform_time_grid(1.0, 64), CheckPolicy())
        mid = mesh.d_index
        h_l, h_r = mesh.h[mid], mesh.h[mid + 1]
        for j in range(1, 65):
            u = sol.values[j]
            gap = abs((u[mid + 1] - u[mid]) / h_r - (u[mid] - u[mid - 1]) / h_l)
            assert gap <= 1e-9 * (1.0 + float(np.max(np.abs(u))))

    def test_strict_policy_raises_when_stability_bound_is_lied_about(self):
        # beta declared far above the actual reaction floor shrinks the
        # audit bound below the true solution scale; validate() would reject
        # this spec, so march's own audit is the last line of defense
        from layersolve import StabilityViolation
        base = lookup("example1", 1e-5, 1e-4)
        lying = ProblemSpec(
            a=base.a, f=base.f, b=base.b, c=base.c, p=base.p, r=base.r,
            q=base.q, d=base.d, t_final=base.t_final, params=base.params,
            alpha1=1.0, alpha2=1.0, beta=5000.0, eta=1.0)
        mesh = spatial_mesh_for(derive_regime(base), base.params, 32, 0.5)
        with pytest.raises(StabilityViolation):
            march(lying, mesh, uniform_time_grid(1.0, 8),
                  CheckPolicy.strict_policy())

    def test_zero_pivot_carries_step_context(self, monkeypatch):
        import layersolve.solver as solver_mod

        def exploding(sys):
            raise ZeroPivot(3)

        monkeypatch.setattr(solver_mod, "thomas_solve", exploding)
        spec = zero_data_spec()
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, 0.5)
        with pytest.raises(ZeroPivot) as err:
            solver_mod.march(spec, mesh, uniform_time_grid(1.0, 4),
                             CheckPolicy())
        assert err.value.row == 3
        assert "N=32" in str(err.value)
        assert "M=4" in str(err.value)
        assert "j=0" in str(err.value)

    def test_zero_pivot_at_factor_carries_step_context(self, monkeypatch):
        import layersolve.solver as solver_mod

        def exploding(sys):
            raise ZeroPivot(3)

        # step 0 solves afresh; step 1 repeats the matrix and factors it
        monkeypatch.setattr(solver_mod, "thomas_factor", exploding)
        spec = zero_data_spec()
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, 0.5)
        with pytest.raises(ZeroPivot) as err:
            solver_mod.march(spec, mesh, uniform_time_grid(1.0, 4),
                             CheckPolicy())
        assert err.value.row == 3
        assert "N=32" in str(err.value)
        assert "M=4" in str(err.value)
        assert "j=1" in str(err.value)

    @pytest.mark.parametrize("b,checks_run", [
        (None, 1),
        (lambda x, t: (1.0 + np.exp(x)) * (1.0 if t < 0.5 else 1.5), 2),
        (lambda x, t: (1.0 + np.exp(x)) * (1.0 + t), 8),
    ], ids=["t-independent", "jump-at-half", "t-dependent"])
    def test_matrix_reuse_matches_per_step_stream(self, monkeypatch, b,
                                                  checks_run):
        import layersolve.solver as solver_mod
        calls = []
        original = solver_mod.m_matrix_check

        def counting(sys):
            calls.append(sys)
            return original(sys)

        monkeypatch.setattr(solver_mod, "m_matrix_check", counting)
        base = lookup("example1", 1e-8, 1e-6)
        spec = base if b is None else with_b(base, b)
        mesh = spatial_mesh_for(derive_regime(base), base.params, 32, 0.5)
        grid = uniform_time_grid(1.0, 8)
        sol = march(spec, mesh, grid, CheckPolicy.strict_policy())
        assert len(calls) == checks_run
        assert np.array_equal(sol.values, per_step_stream(spec, mesh, grid))

    def test_non_finite_initial_data_raises(self):
        spec = zero_data_spec()
        bad = ProblemSpec(
            a=spec.a, f=spec.f, b=spec.b, c=spec.c, p=spec.p, r=spec.r,
            q=lambda x: np.full_like(np.asarray(x, dtype=float), np.inf),
            d=0.5, t_final=1.0, params=spec.params,
            alpha1=1.0, alpha2=1.0, beta=2.0, eta=1.0)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, 0.5)
        with pytest.raises(NonFiniteValue):
            march(bad, mesh, uniform_time_grid(1.0, 4), CheckPolicy())

    def test_strict_policy_raises_on_broken_m_matrix(self):
        # b = -50 makes cbar negative at dt = 1 and wrecks the row signs
        spec = ProblemSpec(
            a=PiecewiseField(left=lambda x, t: -1.0 + 0.0 * x,
                             right=lambda x, t: 1.0 + 0.0 * x, d=0.5),
            f=PiecewiseField(left=lambda x, t: 0.0 * x,
                             right=lambda x, t: 0.0 * x, d=0.5),
            b=lambda x, t: -50.0, c=lambda x, t: 1.0,
            p=lambda t: 0.0, r=lambda t: 0.0, q=lambda x: 0.0 * x,
            d=0.5, t_final=1.0, params=PerturbationParams(0.01, 0.1),
            alpha1=1.0, alpha2=1.0, beta=1.0, eta=1.0)
        mesh = uniform_mesh(16)
        with pytest.raises(MMatrixViolation):
            march(spec, mesh, uniform_time_grid(1.0, 1),
                  CheckPolicy.strict_policy())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            march(spec, mesh, uniform_time_grid(1.0, 1), CheckPolicy())
        assert any(issubclass(w.category, CheckWarning) for w in caught)


class TestStabilityAudit:
    def test_march_reports_a_violation_once_after_the_last_step(self):
        spec, mesh = lying_beta_case()
        grid = uniform_time_grid(1.0, 64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            march(spec, mesh, grid, CheckPolicy())
        assert [w.category for w in caught] == [CheckWarning]
        with pytest.raises(StabilityViolation) as err:
            march(spec, mesh, grid, CheckPolicy.strict_policy())
        for part in ("N=32", "M=64", "j=1 "):
            assert part in str(err.value)

    @pytest.mark.parametrize("checks,calls", [
        (CheckPolicy(), 1), (CheckPolicy.strict_policy(), 1),
        (CheckPolicy.off(), 0),
    ], ids=["warn", "strict", "off"])
    def test_march_calls_the_audit_once_when_audited(self, monkeypatch,
                                                      checks, calls):
        import layersolve.solver as solver_mod
        seen = []
        original = solver_mod.stability_audit

        def counting(sol, spec):
            seen.append(sol)
            return original(sol, spec)

        monkeypatch.setattr(solver_mod, "stability_audit", counting)
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, 0.5)
        sol = march(spec, mesh, uniform_time_grid(1.0, 8), checks)
        assert len(seen) == calls
        assert all(s is sol for s in seen)

    def test_max_abs_makes_no_copy_of_the_values(self):
        spec = lookup("example1", 1e-8, 1e-6)
        values = np.random.default_rng(7).uniform(-1.0, 1.0, (513, 513))
        sol = DiscreteSolution(mesh=uniform_mesh(512),
                               grid=uniform_time_grid(1.0, 512), values=values)
        tracemalloc.start()
        try:
            stability_audit(sol, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * values.nbytes

    @pytest.mark.parametrize("case", ["signed-zeros", "finite", "nan"])
    def test_max_abs_is_bitwise_numpy_abs_max(self, case):
        values = np.full((5, 17), -0.0)
        values[2, 3] = 0.0
        if case != "signed-zeros":
            values[1] = np.linspace(-3.0, 2.0, 17)
        if case == "nan":
            values[3, 4] = np.nan
        sol = DiscreteSolution(mesh=uniform_mesh(16),
                               grid=uniform_time_grid(1.0, 4), values=values)
        report = stability_audit(sol, zero_data_spec())
        expected = np.max(np.abs(values))
        assert np.float64(report.max_abs).tobytes() == expected.tobytes()
        assert report.passed is (case == "signed-zeros")

    def test_zero_data_passes_with_slack_margin(self):
        spec = zero_data_spec()
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, 0.5)
        sol = march(spec, mesh, uniform_time_grid(1.0, 8), CheckPolicy())
        report = stability_audit(sol, spec)
        assert report.passed
        assert report.max_abs == 0.0
        assert report.bound == pytest.approx(1e-8, abs=1e-20)

    def test_example1_passes_with_positive_margin(self):
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        sol = march(spec, mesh, uniform_time_grid(1.0, 64), CheckPolicy())
        report = stability_audit(sol, spec)
        assert report.passed
        assert report.margin > 0.0
        # data sup is 0, so the bound is sup|f|/beta + slack = 4/2 + 1e-8
        assert report.bound == pytest.approx(2.0, rel=1e-8)

    def test_bound_scales_linearly_with_f(self):
        scale = 1e-3
        base = lookup("example1", 1e-8, 1e-6)
        shrunk = ProblemSpec(
            a=base.a,
            f=PiecewiseField(
                left=lambda x, t: scale * -2.0 * (1.0 + x * x) * t,
                right=lambda x, t: scale * 2.0 * (1.0 + x * x) * t, d=0.5),
            b=base.b, c=base.c, p=base.p, r=base.r, q=base.q, d=0.5,
            t_final=1.0, params=base.params,
            alpha1=1.0, alpha2=1.0, beta=2.0, eta=1.0)
        mesh = spatial_mesh_for(derive_regime(base), base.params, 32, 0.5)
        sol = march(shrunk, mesh, uniform_time_grid(1.0, 8), CheckPolicy())
        report = stability_audit(sol, shrunk)
        base_mesh_sol = march(base, mesh, uniform_time_grid(1.0, 8),
                              CheckPolicy())
        base_report = stability_audit(base_mesh_sol, base)
        assert report.f_sup == pytest.approx(scale * base_report.f_sup,
                                             rel=1e-12)
