"""Stencil weights, assembly, transmission row, M-matrix structure."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersolve import (LayerParams, PerturbationParams, PiecewiseField,
                        ProblemSpec, lookup, m_matrix_check,
                        spatial_mesh_for, derive_regime, uniform_mesh)
from layersolve.discretization import assemble, sample_coefficients, stencil_weights
from layersolve.mesh import SpatialMesh
from layersolve.problem import _evaluate
from layersolve.solver import thomas_solve

# Interior-row fixtures: uniform 9-point mesh (h = 1/8, d = 0.5 at index 4),
# example-1 coefficients, t_mid = 0.4921875, dt = 1/64, u_prev below.
# Hand-evaluated from the stencil formulas in a separate script.
U_PREV_9 = np.array([0.0, 0.1, 0.3, 0.2, 0.0, -0.1, -0.25, -0.15, 0.0])
ROW_I2 = dict(w_minus=1.014e-05, w_center=-130.28403619668774,
              w_plus=6.4e-07, forcing=-39.806587157993675)
ROW_I6 = dict(w_minus=6.4e-07, w_center=-131.11701079661267,
              w_plus=1.014e-05, forcing=34.29692076084683)


def nine_point_mesh():
    return SpatialMesh(n=8, points=np.arange(9) / 8.0,
                       tau=(0.125, 0.125, 0.125, 0.125),
                       layer=LayerParams(1.0, 1.0))


def transmission_row(mesh):
    """Row N/2 of :func:`stencil_weights`: the stored weights of U_{N/2-1},
    U_{N/2} and U_{N/2+1}, which no coefficient of the problem enters."""
    spec = lookup("example1", 1e-8, 1e-6)
    return tuple(stencil_weights(spec, mesh)[:3, mesh.n // 2])


def plain_spec(a_left, a_right, f_left, f_right, b, c, p, r, q,
               epsilon, mu, d=0.5):
    return ProblemSpec(
        a=PiecewiseField(left=a_left, right=a_right, d=d),
        f=PiecewiseField(left=f_left, right=f_right, d=d),
        b=b, c=c, p=p, r=r, q=q, d=d, t_final=1.0,
        params=PerturbationParams(epsilon, mu),
        alpha1=1.0, alpha2=1.0, beta=1.0, eta=1.0)


class Row(NamedTuple):
    """Coefficients of (U_{i-1}, U_i, U_{i+1}) in one row, plus its right side."""

    w_minus: float
    w_center: float
    w_plus: float
    forcing: float


def assembled_row(spec, mesh, i, t_mid, dt, u_prev):
    """Row i of the assembled step around t_mid, un-negated to operator form."""
    (sub, diag, sup, _), rhs = assemble(spec, mesh, t_mid + dt / 2, dt, u_prev)
    return Row(-sub[i], -diag[i], -sup[i], -rhs[i])


def oracle_assemble(spec, mesh, t_next, dt, u_prev):
    """Row-by-row scalar assembly straight from the scheme formulas.

    Deliberately written with plain loops and no shared code with the
    library's vectorized assembler.
    """
    n = mesh.n
    x = mesh.points
    eps, mu = spec.params.epsilon, spec.params.mu
    t_mid = t_next - 0.5 * dt
    sub = np.zeros(n + 1)
    diag = np.zeros(n + 1)
    sup = np.zeros(n + 1)
    rhs = np.zeros(n + 1)
    diag[0] = 1.0
    rhs[0] = spec.p(t_next)
    diag[n] = 1.0
    rhs[n] = spec.r(t_next)
    for i in range(1, n):
        hi = x[i] - x[i - 1]
        hi1 = x[i + 1] - x[i]
        if i == n // 2:
            sub[i] = -1.0 / hi
            diag[i] = 1.0 / hi + 1.0 / hi1
            sup[i] = -1.0 / hi1
            rhs[i] = 0.0
            continue
        if i < n // 2:
            a_v = float(spec.a.left(x[i], t_mid))
            f_v = float(spec.f.left(x[i], t_mid))
        else:
            a_v = float(spec.a.right(x[i], t_mid))
            f_v = float(spec.f.right(x[i], t_mid))
        b_v = float(spec.b(x[i], t_mid))
        c_v = float(spec.c(x[i], t_mid))
        cbar = b_v + 2.0 * c_v / dt
        dbar = b_v - 2.0 * c_v / dt
        wm = 2.0 * eps / (hi * (hi + hi1))
        wp = 2.0 * eps / (hi1 * (hi + hi1))
        wc = -2.0 * eps / (hi * hi1) - cbar
        d2u = 2.0 * ((u_prev[i + 1] - u_prev[i]) / hi1
                     - (u_prev[i] - u_prev[i - 1]) / hi) / (hi + hi1)
        if i < n // 2:
            wm += -mu * a_v / hi
            wc += mu * a_v / hi
            du = (u_prev[i] - u_prev[i - 1]) / hi
        else:
            wp += mu * a_v / hi1
            wc += -mu * a_v / hi1
            du = (u_prev[i + 1] - u_prev[i]) / hi1
        g = 2.0 * f_v - eps * d2u - mu * a_v * du + dbar * u_prev[i]
        sub[i] = -wm
        diag[i] = -wc
        sup[i] = -wp
        rhs[i] = -g
    return sub, diag, sup, rhs


class TestInteriorRow:
    def test_degenerate_coefficients_reduce_to_heat_stencil(self):
        # a = 0, b = 0, c = 1, f = 0 on a uniform mesh: the implicit weights
        # are (eps/h^2, -2 eps/h^2 - 2/dt, eps/h^2) and the forcing is the
        # classical Crank-Nicolson right side
        eps, h, dt = 0.37, 0.125, 0.02
        spec = plain_spec(a_left=lambda x, t: 0.0, a_right=lambda x, t: 0.0,
                          f_left=lambda x, t: 0.0, f_right=lambda x, t: 0.0,
                          b=lambda x, t: 0.0, c=lambda x, t: 1.0,
                          p=lambda t: 0.0, r=lambda t: 0.0,
                          q=lambda x: 0.0 * x, epsilon=eps, mu=1.0)
        mesh = nine_point_mesh()
        row = assembled_row(spec, mesh, 2, 0.01, dt, U_PREV_9)
        assert row.w_minus == pytest.approx(eps / h ** 2, rel=1e-15)
        assert row.w_plus == pytest.approx(eps / h ** 2, rel=1e-15)
        assert row.w_center == pytest.approx(-2 * eps / h ** 2 - 2.0 / dt,
                                             rel=1e-15)
        d2u = (U_PREV_9[1] - 2 * U_PREV_9[2] + U_PREV_9[3]) / h ** 2
        assert row.forcing == pytest.approx(-eps * d2u - (2.0 / dt) * U_PREV_9[2],
                                            rel=1e-13)

    def test_frozen_left_branch_row(self):
        spec = lookup("example1", 1e-8, 1e-6)
        row = assembled_row(spec, nine_point_mesh(), 2, 0.4921875, 1.0 / 64,
                           U_PREV_9)
        for key, val in ROW_I2.items():
            assert getattr(row, key) == pytest.approx(val, rel=1e-13)

    def test_frozen_right_branch_row(self):
        spec = lookup("example1", 1e-8, 1e-6)
        row = assembled_row(spec, nine_point_mesh(), 6, 0.4921875, 1.0 / 64,
                           U_PREV_9)
        for key, val in ROW_I6.items():
            assert getattr(row, key) == pytest.approx(val, rel=1e-13)

    def test_upwind_side_carries_no_convection(self):
        # left of d the weight on U_{i+1} is pure diffusion; right of d the
        # weight on U_{i-1} is pure diffusion
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        u_prev = np.sin(np.linspace(0.0, 3.0, 65))
        eps = spec.params.epsilon
        for i in (1, 17, 31):
            row = assembled_row(spec, mesh, i, 0.3, 0.01, u_prev)
            hi, hi1 = mesh.h[i], mesh.h[i + 1]
            assert row.w_plus == pytest.approx(2 * eps / (hi1 * (hi + hi1)),
                                               rel=1e-15)
        for i in (33, 47, 63):
            row = assembled_row(spec, mesh, i, 0.3, 0.01, u_prev)
            hi, hi1 = mesh.h[i], mesh.h[i + 1]
            assert row.w_minus == pytest.approx(2 * eps / (hi * (hi + hi1)),
                                                rel=1e-15)

    def test_quadratic_one_sided_consistency(self):
        # applying the implicit operator to x^2 reproduces
        # 2 eps + mu a (one-sided slope) - cbar x_i^2 up to O(h)
        from layersolve import uniform_mesh
        spec = lookup("example1", 0.5, 0.5)
        mesh = uniform_mesh(256)
        u = mesh.points ** 2
        dt = 0.1
        t_mid = 0.25
        for i in (5, 40, 100, 131, 200, 250):
            row = assembled_row(spec, mesh, i, t_mid, dt, u)
            applied = (row.w_minus * u[i - 1] + row.w_center * u[i]
                       + row.w_plus * u[i + 1])
            xi = mesh.points[i]
            a_v = float(spec.a.left(xi, t_mid) if i < 128
                        else spec.a.right(xi, t_mid))
            cbar = float(spec.b(xi, t_mid)) + 2.0 / dt
            continuous = 2.0 * spec.params.epsilon + 0.5 * a_v * 2.0 * xi \
                - cbar * xi * xi
            h_local = max(mesh.h[i], mesh.h[i + 1])
            assert abs(applied - continuous) <= 0.5 * abs(a_v) * h_local + 1e-12


class TestDiscontinuityRow:
    def test_symmetric_steps(self):
        assert transmission_row(nine_point_mesh()) == (-8.0, 16.0, -8.0)

    @given(slope=st.floats(-1e3, 1e3), intercept=st.floats(-1e3, 1e3),
           theta=st.floats(500.0, 1e5))
    @settings(max_examples=40, deadline=None)
    def test_annihilates_linear_profiles(self, slope, intercept, theta):
        from layersolve import build_mesh, transition_points
        lay = LayerParams(theta, theta)
        mesh = build_mesh(lay, transition_points(lay, 32, 0.5), 32, 0.5)
        w_minus, w_center, w_plus = transmission_row(mesh)
        mid = 16
        profile = slope * mesh.points + intercept
        residual = (w_minus * profile[mid - 1] + w_center * profile[mid]
                    + w_plus * profile[mid + 1])
        scale = max(1.0, abs(slope), abs(intercept)) / min(mesh.h[mid], 1.0)
        assert abs(residual) <= 1e-12 * scale

    def test_example1_mesh_weights_from_closed_forms(self):
        # h at the discontinuity computed directly from the L2/L3 formulas
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        th = mesh.layer.theta2
        x31 = 0.5 + (8.0 / th) * math.log((8.0 * 31 / 64) * (1 - 1 / 8.0)
                                          + 4.0 / 8.0 - 3.0)
        x33 = 0.5 - (8.0 / th) * math.log((8.0 * 33 / 64) * (1 / 8.0 - 1)
                                          + 5.0 - 4.0 / 8.0)
        h32 = 0.5 - x31
        h33 = x33 - 0.5
        assert h32 == pytest.approx(h33, rel=1e-12)
        w_minus, w_center, _ = transmission_row(mesh)
        assert w_minus == pytest.approx(-1.0 / h32, rel=1e-12)
        assert w_center == pytest.approx(2.0 / h32, rel=1e-12)


class TestAssemble:
    def test_matches_interior_row_and_transmission(self):
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        rng = np.random.default_rng(7)
        u_prev = rng.normal(size=65)
        t_next, dt = 0.25, 1.0 / 64
        bands, got_rhs = assemble(spec, mesh, t_next, dt, u_prev)
        sub, diag, sup, rhs = oracle_assemble(spec, mesh, t_next, dt, u_prev)
        for i in (1, 7, 8, 20, 31, 33, 40, 57, 63):
            assert bands[0, i] == pytest.approx(sub[i], rel=1e-14)
            assert bands[1, i] == pytest.approx(diag[i], rel=1e-14)
            assert bands[2, i] == pytest.approx(sup[i], rel=1e-14)
            assert got_rhs[i] == pytest.approx(rhs[i], rel=1e-13)
        assert tuple(bands[:3, 32]) == transmission_row(mesh)
        assert got_rhs[32] == 0.0

    def test_matches_independent_oracle(self):
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        for u_prev, t_next in ((np.zeros(65), 1.0 / 64),
                               (np.sin(3.0 * mesh.points), 0.5)):
            bands, got_rhs = assemble(spec, mesh, t_next, 1.0 / 64, u_prev)
            sub, diag, sup, rhs = oracle_assemble(spec, mesh, t_next, 1.0 / 64,
                                                  u_prev)
            np.testing.assert_allclose(bands[0], sub, rtol=1e-13, atol=0)
            np.testing.assert_allclose(bands[1], diag, rtol=1e-13, atol=0)
            np.testing.assert_allclose(bands[2], sup, rtol=1e-13, atol=0)
            np.testing.assert_allclose(got_rhs, rhs, rtol=1e-12, atol=1e-13)

    def test_boundary_rows_pin_data(self):
        spec = plain_spec(a_left=lambda x, t: -1.0, a_right=lambda x, t: 1.0,
                          f_left=lambda x, t: 0.0, f_right=lambda x, t: 0.0,
                          b=lambda x, t: 1.0, c=lambda x, t: 1.0,
                          p=lambda t: math.sin(t), r=lambda t: t * t,
                          q=lambda x: 0.0 * x, epsilon=0.1, mu=0.1)
        mesh = nine_point_mesh()
        rng = np.random.default_rng(3)
        for u_prev in (np.zeros(9), rng.normal(size=9)):
            (sub, diag, sup, _), rhs = assemble(spec, mesh, 0.7, 0.1, u_prev)
            assert diag[0] == 1.0 and sub[0] == 0.0 and sup[0] == 0.0
            assert diag[8] == 1.0 and sub[8] == 0.0 and sup[8] == 0.0
            assert rhs[0] == math.sin(0.7)
            assert rhs[8] == 0.7 ** 2

    def test_printed_coefficient_identity_for_unit_c(self):
        # with c == 1 the stored diagonal contains exactly b + 2/dt
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        dt = 0.03125
        bands, _ = assemble(spec, mesh, 0.5, dt, np.zeros(65))
        eps, mu = spec.params.epsilon, spec.params.mu
        t_mid = 0.5 - dt / 2
        for i in (3, 17, 29):
            hi, hi1 = mesh.h[i], mesh.h[i + 1]
            a_v = float(spec.a.left(mesh.points[i], t_mid))
            b_v = float(spec.b(mesh.points[i], t_mid))
            expected = (2 * eps / (hi * hi1) - mu * a_v / hi) + (b_v + 2.0 / dt)
            assert bands[1, i] == pytest.approx(expected, rel=1e-14)

    def test_rejects_u_prev_of_the_wrong_length(self):
        spec = lookup("example1", 1e-8, 1e-6)
        with pytest.raises(ValueError, match="u_prev must have 17 entries"):
            assemble(spec, uniform_mesh(16), 0.5, 0.5, np.zeros(16))

    def test_zero_data_toy_solves_to_zero(self):
        spec = plain_spec(a_left=lambda x, t: -1.0, a_right=lambda x, t: 1.0,
                          f_left=lambda x, t: 0.0, f_right=lambda x, t: 0.0,
                          b=lambda x, t: 1.0, c=lambda x, t: 1.0,
                          p=lambda t: 0.0, r=lambda t: 0.0,
                          q=lambda x: 0.0 * x, epsilon=0.1, mu=0.1)
        mesh = nine_point_mesh()
        assert np.array_equal(thomas_solve(*assemble(spec, mesh, 0.25, 0.25, np.zeros(9))),
                              np.zeros(9))


def concatenated_rows(field, mesh, t):
    """The branches of ``field`` on rows 1..N-1, one copy joined along x."""
    mid = mesh.n // 2
    return np.concatenate((_evaluate(field.left, mesh.points[1:mid], t),
                           _evaluate(field.right, mesh.points[mid:-1], t)), axis=-1)


def t_constant(x):
    return -(1.0 + x * (1.0 - x))


def t_dependent(x, t):
    return (1.0 + x * (1.0 - x)) * (1.0 + t)


class TestSampleCoefficients:
    """a and f bitwise as one joined copy of the branches would be."""

    T_COLUMN = np.array([0.1, 0.35, 0.6])[:, None]

    @staticmethod
    def spec_with(left, right):
        return plain_spec(a_left=left, a_right=right, f_left=left, f_right=right,
                          b=lambda x, t: 1.0, c=lambda x, t: 1.0, p=lambda t: 0.0,
                          r=lambda t: 0.0, q=lambda x: 0.0 * x, epsilon=1e-8, mu=1e-6)

    @pytest.mark.parametrize("left,right,broadcast", [
        (lambda x, t: t_constant(x), lambda x, t: -t_constant(x), True),
        (lambda x, t: t_constant(x), t_dependent, False),
        (t_dependent, lambda x, t: -t_constant(x), False),
        (lambda x, t: -1.0, lambda x, t: 2.5, True),
    ], ids=["both-t-constant", "left-t-constant", "right-t-constant", "scalars"])
    def test_column_of_times(self, left, right, broadcast):
        spec, mesh = self.spec_with(left, right), uniform_mesh(64)
        a, _, _, f = sample_coefficients(spec, mesh, self.T_COLUMN)
        want = concatenated_rows(spec.a, mesh, self.T_COLUMN)
        for got in (a, f):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert (got.strides[0] == 0) is broadcast

    def test_float_t_only_callable_is_sampled_per_time(self):
        def left(x, t):
            return t_constant(x) * (1.0 if t < 0.5 else 2.0)

        spec, mesh = self.spec_with(left, t_dependent), uniform_mesh(64)
        with pytest.raises(ValueError):
            sample_coefficients(spec, mesh, self.T_COLUMN)
        for t in self.T_COLUMN[:, 0].tolist():
            a, _, _, f = sample_coefficients(spec, mesh, t)
            want = concatenated_rows(spec.a, mesh, t).tobytes()
            assert a.tobytes() == f.tobytes() == want

    def test_next_chunk_is_written_into_the_last_ones_arrays(self):
        spec, mesh = self.spec_with(lambda x, t: t_constant(x), t_dependent), uniform_mesh(64)
        last = sample_coefficients(spec, mesh, self.T_COLUMN)
        kept = [x.copy() for x in last]
        later = self.T_COLUMN[:2] + 0.5
        a, b, c, f = sample_coefficients(spec, mesh, later, last)
        want = concatenated_rows(spec.a, mesh, later).tobytes()
        assert a.tobytes() == f.tobytes() == want
        assert np.shares_memory(a, last[0]) and np.shares_memory(f, last[3])
        # rows the later call did not reach, and b and c, are left as they were
        assert all(x[2:].tobytes() == y[2:].tobytes() for x, y in zip(last, kept))
        assert not np.shares_memory(b, last[1]) and not np.shares_memory(c, last[2])


class TestMMatrixCheck:
    def test_identity_passes(self):
        n = 6
        report = m_matrix_check(np.array([np.zeros(n), np.ones(n), np.zeros(n)]))
        assert report.passed
        assert report.violations == ()

    def test_positive_off_diagonal_reported(self):
        sub = np.array([0.0, -1.0, 0.5, -1.0, 0.0])
        diag = np.array([1.0, 3.0, 3.0, 3.0, 1.0])
        sup = np.array([0.0, -1.0, -1.0, -1.0, 0.0])
        report = m_matrix_check(np.array([sub, diag, sup]))
        assert not report.passed
        assert (2, "positive off-diagonal") in report.violations

    def test_normalization_handles_negated_rows(self):
        # the same matrix with every row multiplied by -1 must still pass
        sub = np.array([0.0, 1.0, 1.0, 0.0])
        diag = np.array([-1.0, -3.0, -3.0, -1.0])
        sup = np.array([0.0, 1.0, 1.0, 0.0])
        report = m_matrix_check(np.array([sub, diag, sup]))
        assert report.passed

    def test_dominance_violation_reported(self):
        sub = np.array([0.0, -2.0, -1.0, 0.0])
        diag = np.array([1.0, 3.0, 3.0, 1.0])
        sup = np.array([0.0, -2.0, -1.0, 0.0])
        report = m_matrix_check(np.array([sub, diag, sup]))
        assert not report.passed
        assert (1, "not diagonally dominant") in report.violations

    def test_no_strictly_dominant_row_reported(self):
        # every row is dominant with equality, boundary rows included
        sub = np.array([0.0, -1.0, -1.0])
        diag = np.array([1.0, 2.0, 1.0])
        sup = np.array([-1.0, -1.0, 0.0])
        report = m_matrix_check(np.array([sub, diag, sup]))
        assert not report.passed
        assert report.violations == ((-1, "no strictly dominant row"),)
        assert (report.min_margin, report.strict_rows) == (0.0, 0)

    def test_assembled_systems_pass(self):
        spec = lookup("example1", 1e-8, 1e-6)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, 0.5)
        rng = np.random.default_rng(11)
        for u_prev in (np.zeros(65), rng.normal(size=65)):
            bands, _ = assemble(spec, mesh, 0.125, 1.0 / 64, u_prev)
            report = m_matrix_check(bands)
            assert report.passed
            assert report.min_margin >= 0.0
            assert report.strict_rows >= 1
