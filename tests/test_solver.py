"""Thomas elimination, time marching, runtime audits."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from layersolve import (CheckPolicy, CheckWarning, DiscreteSolution,
                        MMatrixViolation, NonFiniteValue, PerturbationParams,
                        PiecewiseField, ProblemSpec, StabilityViolation,
                        ZeroPivot, derive_regime, lookup,
                        m_matrix_check, march, spatial_mesh_for,
                        uniform_mesh, uniform_time_grid)
from layersolve.discretization import _tridiagonal_apply, assemble
from layersolve.solver import residual_max_norm, thomas_solve

from stability_reference import stability_report


def random_dominant_system(rng, size):
    sub = rng.uniform(-1.0, 1.0, size)
    sup = rng.uniform(-1.0, 1.0, size)
    sub[0] = 0.0
    sup[-1] = 0.0
    diag = np.abs(sub) + np.abs(sup) + rng.uniform(0.5, 2.0, size)
    diag *= rng.choice([-1.0, 1.0], size)
    rhs = rng.uniform(-10.0, 10.0, size)
    return np.array([sub, diag, sup]), rhs


def dense_solve(bands, rhs):
    sub, diag, sup = bands
    n = len(rhs)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = diag[i]
        if i > 0:
            a[i, i - 1] = sub[i]
        if i < n - 1:
            a[i, i + 1] = sup[i]
    return np.linalg.solve(a, rhs)


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
        bands, rhs = assemble(spec, mesh, float(grid.times[j + 1]), grid.dt, values[j])
        u = thomas_solve(bands, rhs)
        u[0] = rhs[0]
        u[n] = rhs[n]
        values[j + 1] = u
    return values


class TestThomasSolve:
    def test_identity_returns_rhs(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=12)
        bands = np.array([np.zeros(12), np.ones(12), np.zeros(12)])
        assert np.array_equal(thomas_solve(bands, v.copy()), v)

    def test_laplacian_recovers_known_solution(self):
        n = 40
        x_true = np.arange(1.0, n + 1.0)
        sub = np.full(n, -1.0)
        sup = np.full(n, -1.0)
        diag = np.full(n, 2.0)
        sub[0] = 0.0
        sup[-1] = 0.0
        bands = np.array([sub, diag, sup])
        rhs = _tridiagonal_apply(bands, x_true)
        np.testing.assert_allclose(thomas_solve(bands, rhs), x_true, rtol=1e-12)

    def test_random_systems_match_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            bands, rhs = random_dominant_system(rng, int(rng.integers(3, 60)))
            x = thomas_solve(bands, rhs)
            np.testing.assert_allclose(x, dense_solve(bands, rhs), rtol=1e-12,
                                       atol=1e-14)

    def test_zero_pivot_reports_row(self):
        bands = np.array([[0.0, 1.0, 1.0], [0.0, 2.0, 2.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ZeroPivot) as err:
            thomas_solve(bands, np.ones(3))
        assert err.value.row == 0

    def test_rejects_tiny_systems(self):
        bands = np.array([np.zeros(2), np.ones(2), np.zeros(2)])
        with pytest.raises(ValueError):
            thomas_solve(bands, np.ones(2))

    def test_band_array_shapes(self):
        """A right side that does not have one entry per row of the bands is
        refused; the M-matrix check reads rows 0-2 and ignores a row 3."""
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        bands, rhs = assemble(spec, mesh, 1.0 / 64, 1.0 / 64, np.zeros(65))
        assert bands.shape == (4, 65) and rhs.shape == (65,)
        for wrong in (rhs[:-1], np.append(rhs, 0.0), rhs[None]):
            for rows in (bands, bands[:3]):
                with pytest.raises(ValueError):
                    thomas_solve(rows, wrong)
        assert thomas_solve(bands, rhs).tobytes() == thomas_solve(bands[:3], rhs).tobytes()
        broken = bands.copy()
        broken[0, 5], broken[3] = 1.0, np.nan
        for matrix in (bands, broken):
            assert m_matrix_check(matrix) == m_matrix_check(matrix[:3].copy())
        assert m_matrix_check(bands).passed and not m_matrix_check(broken).passed

    def test_residual_within_tolerance_on_assembled_step(self):
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        bands, rhs = assemble(spec, mesh, 1.0 / 64, 1.0 / 64, np.zeros(65))
        x = thomas_solve(bands, rhs)
        tol = 1e-10 * (1.0 + float(np.max(np.abs(rhs))))
        assert residual_max_norm(bands, rhs, x) <= tol


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
        steady = thomas_solve(np.array([sub, diag, sup]), rhs)
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
        mid = mesh.n // 2
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
        kernel = solver_mod._KERNEL
        spec = zero_data_spec()
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, 0.5)
        # one advance call per chunk, which names the step of its chunk
        # whose pivot vanished, here step 2: j = 2 in one chunk of 6 steps;
        # with chunks of 3 steps, j = 3 + 2 in the second call
        for chunk_bytes, failing, j in ((solver_mod._CHUNK_BYTES, 0, 2),
                                        (3 * 8 * 31, 1, 5)):
            calls = []

            def exploding(*args):
                calls.append(args)
                bad = kernel.advance(*args)
                if len(calls) > failing:
                    raise ZeroPivot(3, step=2)
                return bad

            monkeypatch.setattr(solver_mod, "_KERNEL", kernel._replace(advance=exploding))
            monkeypatch.setattr(solver_mod, "_CHUNK_BYTES", chunk_bytes)
            with pytest.raises(ZeroPivot) as err:
                solver_mod.march(spec, mesh, uniform_time_grid(1.0, 6),
                                 CheckPolicy())
            assert len(calls) == failing + 1
            assert err.value.row == 3
            assert "N=32" in str(err.value)
            assert "M=6" in str(err.value)
            assert f"j={j}" in str(err.value)

    @pytest.mark.parametrize("make,checks_run", [
        (lambda base: base, 1),
        (lambda base: with_b(base, lambda x, t: (1.0 + np.exp(x)) * (1.0 if t < 0.5 else 1.5)),
         2),
        (lambda base: with_b(base, lambda x, t: (1.0 + np.exp(x)) * (1.0 + t)), 8),
        # element 0 (x_1) of b is the same at every step: only the full row tells
        (lambda base: with_b(base, lambda x, t: (1.0 + np.exp(x))
                             * np.where(x > 0.9, 1.0 + t, 1.0)), 8),
        (lambda base: dataclasses.replace(base, a=PiecewiseField(
            left=base.a.left, right=lambda x, t: base.a.right(x, t) * (1.0 + t),
            d=base.d)), 8),
        # a new a at each chunk's first step when chunks hold 2 steps: the last
        # rows kept to compare with must survive sampling into the same arrays
        (lambda base: dataclasses.replace(base, a=PiecewiseField(
            left=base.a.left, d=base.d,
            right=lambda x, t: base.a.right(x, t) * (1.0 + np.floor(4.0 * t) / 4.0))), 4),
    ], ids=["t-independent", "jump-at-half", "t-dependent", "b-new-beyond-x-0.9",
            "a-right-t-dependent", "a-new-at-chunk-starts"])
    def test_matrix_reuse_matches_per_step_stream(self, monkeypatch, make,
                                                  checks_run):
        import layersolve.solver as solver_mod
        calls = []
        original = solver_mod.m_matrix_check

        def counting(sys):
            calls.append(sys)
            return original(sys)

        monkeypatch.setattr(solver_mod, "m_matrix_check", counting)
        base = lookup("example1", 1e-8, 1e-6)
        spec = make(base)
        mesh = spatial_mesh_for(derive_regime(base), base.params, 32, 0.5)
        grid = uniform_time_grid(1.0, 8)
        expected = per_step_stream(spec, mesh, grid)
        # one chunk, then chunks of 2 steps, each sampled into the last one's arrays
        for chunk_bytes in (solver_mod._CHUNK_BYTES, 2 * 8 * 31):
            monkeypatch.setattr(solver_mod, "_CHUNK_BYTES", chunk_bytes)
            calls.clear()
            sol = march(spec, mesh, grid, CheckPolicy.strict_policy())
            assert len(calls) == checks_run
            assert np.array_equal(sol.values, expected)

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

    def test_solution_values_must_match_mesh_and_grid(self):
        with pytest.raises(ValueError, match=r"shape \(5, 17\)"):
            DiscreteSolution(mesh=uniform_mesh(16), grid=uniform_time_grid(1.0, 4),
                             values=np.zeros((4, 17)))

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
        # the report is made once per march, streamed or not
        import layersolve.solver as solver_mod
        seen = []
        original = solver_mod._audit_report

        def counting(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(solver_mod, "_audit_report", counting)
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, 0.5)
        for sink in (None, lambda j0, rows: None):
            seen.clear()
            march(spec, mesh, uniform_time_grid(1.0, 8), checks, sink=sink)
            assert len(seen) == calls

    def test_audited_march_allocates_at_most_1mb_beyond_its_values(self):
        # the march of `solve` at N = M = 1024: samples are taken a chunk of
        # steps at a time, never for the whole march (8.4 MB of f alone)
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 1024, spec.d)
        tracemalloc.start()
        try:
            sol = march(spec, mesh, uniform_time_grid(1.0, 1024), CheckPolicy())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - sol.values.nbytes <= 1 << 20

    def test_unaudited_march_allocates_at_most_4mb_beyond_its_values(self):
        # the benchmark's march-4096 march at N = 1024, a new matrix every
        # step: its chunk arrays are allocated once per march, not per M
        base = lookup("example1", 1e-8, 1e-6)
        spec = dataclasses.replace(
            base, b=lambda x, t: (1.0 + np.exp(x)) * (1.0 + t), c=lambda x, t: 1.0 + 0.5 * t,
            a=PiecewiseField(left=lambda x, t: base.a.left(x, t) * (1.0 + 0.5 * t),
                             right=lambda x, t: base.a.right(x, t) * (1.0 + 0.5 * t),
                             d=base.d))
        mesh = spatial_mesh_for(derive_regime(base), base.params, 1024, base.d)
        extra = {}
        for m in (256, 4096):
            tracemalloc.start()
            try:
                sol = march(spec, mesh, uniform_time_grid(1.0, m), CheckPolicy.off())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra[m] = peak - sol.values.nbytes
        assert extra[256] <= 4 << 20
        assert extra[4096] <= extra[256] + (64 << 10)

    def test_zero_data_passes_with_slack_margin(self):
        spec = zero_data_spec()
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, 0.5)
        sol = march(spec, mesh, uniform_time_grid(1.0, 8), CheckPolicy())
        report = stability_report(sol, spec)
        assert report.passed
        assert report.max_abs == 0.0
        assert report.bound == pytest.approx(1e-8, abs=1e-20)

    def test_example1_passes_with_positive_margin(self):
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        sol = march(spec, mesh, uniform_time_grid(1.0, 64), CheckPolicy())
        report = stability_report(sol, spec)
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
        report = stability_report(sol, shrunk)
        base_mesh_sol = march(base, mesh, uniform_time_grid(1.0, 8),
                              CheckPolicy())
        base_report = stability_report(base_mesh_sol, base)
        assert report.f_sup == pytest.approx(scale * base_report.f_sup,
                                             rel=1e-12)


def nan_f_after(spec, t_bad):
    """spec with f NaN at every sample time after t_bad."""
    def f(branch):
        return lambda x, t: branch(x, t) + np.where(np.asarray(t) > t_bad, np.nan, 0.0)
    return dataclasses.replace(spec, f=PiecewiseField(left=f(spec.f.left),
                                                      right=f(spec.f.right), d=spec.d))


class TestStreamedMarch:
    """``march(..., sink=...)``: the same levels, a chunk at a time."""

    KERNELS = ["python", "loaded"]

    @pytest.fixture(params=KERNELS)
    def kernel(self, request, monkeypatch):
        import layersolve.solver as solver_mod
        if request.param == "python":
            monkeypatch.setattr(solver_mod, "_KERNEL", solver_mod._PYTHON_KERNEL)
        return solver_mod

    @pytest.mark.parametrize("steps", [1, 3, 8])
    def test_sink_gets_each_level_once_as_a_read_only_view(self, kernel, monkeypatch,
                                                           steps):
        spec = lookup("example1", 1e-5, 1e-4)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, spec.d)
        grid = uniform_time_grid(1.0, 8)
        full = march(spec, mesh, grid, CheckPolicy.strict_policy()).values
        monkeypatch.setattr(kernel, "_CHUNK_BYTES", steps * 8 * 31)
        blocks = []

        def sink(j0, rows):
            assert not rows.flags.writeable
            blocks.append((j0, rows.copy()))

        assert march(spec, mesh, grid, CheckPolicy.strict_policy(), sink=sink) is None
        starts = [j0 for j0, _ in blocks]
        assert starts == [0, *range(steps + 1, 9, steps)]
        assert np.concatenate([rows for _, rows in blocks]).tobytes() == full.tobytes()

    def test_non_finite_f_in_the_second_chunk(self, kernel, monkeypatch):
        # chunks of 3 steps; f turns NaN at step 4's midpoint t = 4.5/8, in
        # the second chunk, so the sink has seen levels 0-3 and no more
        spec = nan_f_after(lookup("example1", 1e-5, 1e-4), 0.5)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 32, spec.d)
        monkeypatch.setattr(kernel, "_CHUNK_BYTES", 3 * 8 * 31)
        seen = []
        with pytest.raises(NonFiniteValue, match=r"step j=4 \(N=32, M=8\)"):
            march(spec, mesh, uniform_time_grid(1.0, 8), CheckPolicy(),
                  sink=lambda j0, rows: seen.append((j0, len(rows))))
        assert seen == [(0, 4)]

    def test_stability_violation_text_is_the_unstreamed_text(self, kernel):
        spec, mesh = lying_beta_case()
        grid = uniform_time_grid(1.0, 64)
        texts = []
        for sink in (None, lambda j0, rows: None):
            with pytest.raises(StabilityViolation) as err:
                march(spec, mesh, grid, CheckPolicy.strict_policy(), sink=sink)
            texts.append(str(err.value))
        assert texts[0] == texts[1]
        assert texts[0].startswith("max|U| ") and "first at step j=1 " in texts[0]

    @pytest.mark.parametrize("checks,times", [(CheckPolicy(), 9), (CheckPolicy.off(), 8)],
                             ids=["audited", "off"])
    def test_boundary_data_is_called_once_per_time(self, checks, times):
        # each chunk's steps and the stability bound share one call per time;
        # t = 0 is needed only by the bound
        calls = []
        base = lookup("example1", 1e-5, 1e-4)
        spec = dataclasses.replace(base, p=lambda t: calls.append(("p", t)) or base.p(t),
                                   r=lambda t: calls.append(("r", t)) or base.r(t))
        mesh = spatial_mesh_for(derive_regime(base), base.params, 32, base.d)
        grid = uniform_time_grid(1.0, 8)
        march(spec, mesh, grid, checks)
        for name in "pr":
            assert sorted(t for n, t in calls if n == name) == grid.times[9 - times:].tolist()
