"""Mesh construction: landmarks, grading, bisection nesting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersolve import (LayerParams, LayersOverlap, NonMonotone, PerturbationParams,
                        RegimeCase, RegimeConstants, ThetaVariant,
                        UnsupportedRegime, bisect, build_mesh, layer_params,
                        transition_points, uniform_mesh, uniform_time_grid)
from layersolve.mesh import SpatialMesh

# Mesh points for N=64, theta1=theta2=5000, d=0.5, evaluated independently
# from the six closed forms at 50-digit precision (mpmath) and rounded here.
MESH_POINTS_N64_TH5000 = (
    0.0, 0.000185330904840194728, 0.000394976124690441277, 0.000636292748265775093,
    0.000920582631845698968, 0.00126653960539711653, 0.0017085450080021696, 0.00232133261161193886,
    0.00332710646668773749, 0.0341612181583517703, 0.0649953298500158031, 0.0958294415416798359,
    0.126663553233343869, 0.157497664925007902, 0.188331776616671934, 0.219165888308335967,
    0.25, 0.280834111691664033, 0.311668223383328066, 0.342502335074992098,
    0.373336446766656131, 0.404170558458320164, 0.435004670149984197, 0.46583878184164823,
    0.496672893533312263, 0.497678667388388061, 0.49829145499199783, 0.498733460394602883,
    0.499079417368154301, 0.499363707251734225, 0.499605023875309559, 0.499814669095159805,
    0.5, 0.500185330904840195, 0.500394976124690441, 0.500636292748265775,
    0.500920582631845699, 0.501266539605397117, 0.50170854500800217, 0.502321332611611939,
    0.503327106466687737, 0.53416121815835177, 0.564995329850015803, 0.595829441541679836,
    0.626663553233343869, 0.657497664925007902, 0.688331776616671934, 0.719165888308335967,
    0.75, 0.780834111691664033, 0.811668223383328066, 0.842502335074992098,
    0.873336446766656131, 0.904170558458320164, 0.935004670149984197, 0.96583878184164823,
    0.996672893533312263, 0.997678667388388061, 0.99829145499199783, 0.998733460394602883,
    0.999079417368154301, 0.999363707251734225, 0.999605023875309559, 0.999814669095159805,
    1.0,
)

def case1_regime(rho=1.0, alpha=1.0):
    return RegimeConstants(rho=rho, alpha=alpha, case=RegimeCase.CASE_I)


def graded(theta, n, d=0.5):
    lay = LayerParams(theta, theta)
    return build_mesh(lay, transition_points(lay, n, d), n, d)


class TestLayerParams:
    @pytest.mark.parametrize("theta1,theta2", [(0.0, 1.0), (1.0, -1.0)])
    def test_rejects_non_positive_rates(self, theta1, theta2):
        with pytest.raises(ValueError, match="decay rates must be positive"):
            LayerParams(theta1, theta2)

    def test_section4_symmetric_values(self):
        # rho*alpha = 1, eps = 1e-8: sqrt(1)/(2e-4) = 5000
        lay = layer_params(case1_regime(), PerturbationParams(1e-8, 1e-6))
        assert lay.theta1 == pytest.approx(5000.0, rel=1e-15)
        assert lay.theta2 == pytest.approx(5000.0, rel=1e-15)

    def test_example1_regime_values_frozen(self):
        # theta and tau derived by composing the sampled rho of example1
        # (1.9145518803655759 on the default grid) with the closed forms
        from layersolve import derive_regime, lookup
        spec = lookup("example1", 1e-8, 1e-6)
        lay = layer_params(derive_regime(spec), spec.params)
        assert lay.theta1 == pytest.approx(6918.366643156417, rel=1e-13)
        assert lay.theta2 == lay.theta1
        tau = transition_points(lay, 64, 0.5)
        assert tau[0] == pytest.approx(0.002404546216106427, rel=1e-13)
        assert tau == (tau[0],) * 4

    def test_section2_asymmetric_values(self):
        lay = layer_params(case1_regime(), PerturbationParams(1e-8, 1e-6),
                           ThetaVariant.SECTION2)
        assert lay.theta1 == pytest.approx(10000.0, rel=1e-15)
        assert lay.theta2 == pytest.approx(5000.0, rel=1e-15)

    def test_case_two_is_unsupported_for_every_variant(self):
        regime = RegimeConstants(rho=1.0, alpha=1.0, case=RegimeCase.CASE_II)
        assert [v.name for v in ThetaVariant] == ["SECTION4", "SECTION2"]
        for variant in ThetaVariant:
            with pytest.raises(UnsupportedRegime, match=r"case \(i\) only"):
                layer_params(regime, PerturbationParams(1e-8, 1e-2), variant)


class TestTransitionPoints:
    def test_direct_formula(self):
        tau = transition_points(LayerParams(2000.0, 2000.0), 64, 0.5)
        assert tau[0] == pytest.approx(4.0 * math.log(64) / 2000.0, rel=1e-15)
        assert tau == (tau[3], tau[2], tau[1], tau[0])  # tau1=tau4, tau2=tau3

    def test_overlap_raises(self):
        with pytest.raises(LayersOverlap):
            transition_points(LayerParams(8.0, 8.0), 64, 0.5)

    @pytest.mark.parametrize("n", [8, 12, 20, 100])
    def test_n_constraints(self, n):
        with pytest.raises(ValueError):
            transition_points(LayerParams(2000.0, 2000.0), n, 0.5)


class TestBuildMesh:
    def test_frozen_point_list(self):
        mesh = graded(5000.0, 64)
        assert np.max(np.abs(mesh.points - np.array(MESH_POINTS_N64_TH5000))) < 1e-15

    def test_endpoints_and_center_exact(self):
        mesh = graded(5000.0, 64)
        assert mesh.points[0] == 0.0
        assert mesh.points[32] == 0.5
        assert mesh.points[64] == 1.0

    def test_landmarks_match_analytic_values(self):
        n, theta = 128, 3000.0
        mesh = graded(theta, n)
        tau = 4.0 * math.log(n) / theta
        assert abs(mesh.points[n // 8] - tau) < 1e-10
        assert abs(mesh.points[3 * n // 8] - (0.5 - tau)) < 1e-10
        assert abs(mesh.points[5 * n // 8] - (0.5 + tau)) < 1e-10
        assert abs(mesh.points[7 * n // 8] - (1.0 - tau)) < 1e-10

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("theta", [1e2, 1e3, 1e4, 1e6])
    def test_structural_invariants(self, n, theta):
        lay = LayerParams(theta, theta)
        try:
            tau = transition_points(lay, n, 0.5)
        except LayersOverlap:
            assert 8.0 * math.log(n) / theta >= 0.5
            return
        mesh = build_mesh(lay, tau, n, 0.5)
        h = mesh.h[1:]
        assert np.all(h > 0.0)
        # grading directions: outward from 0, inward toward d, mirrored right
        n8, n38, n2, n58, n78 = (n // 8, 3 * n // 8, n // 2, 5 * n // 8,
                                 7 * n // 8)
        assert np.all(np.diff(h[:n8]) >= -1e-18)
        assert np.all(np.diff(h[n38:n2]) <= 1e-18)
        assert np.all(np.diff(h[n2:n58]) >= -1e-18)
        assert np.all(np.diff(h[n78:]) <= 1e-18)
        # uniform segments equal within 1e-12
        for seg in (h[n8:n38], h[n58:n78]):
            assert np.max(seg) - np.min(seg) <= 1e-12
        # layer step bound h*theta <= 64/sqrt(N)
        bound = 64.0 / math.sqrt(n)
        for seg in (h[:n8], h[n38:n2], h[n2:n58], h[n78:]):
            assert np.max(seg) * theta <= bound * (1.0 + 1e-12)

    def test_segment_labels(self):
        mesh = graded(5000.0, 64)
        assert mesh.segment_label(0) == "L1"
        assert mesh.segment_label(8) == "L1"
        assert mesh.segment_label(9) == "U1"
        assert mesh.segment_label(24) == "U1"
        assert mesh.segment_label(32) == "L2"
        assert mesh.segment_label(40) == "L3"
        assert mesh.segment_label(56) == "U2"
        assert mesh.segment_label(64) == "L4"
        with pytest.raises(IndexError):
            mesh.segment_label(65)

    def test_overlapping_widths_are_not_monotone(self):
        # tau1 = 0.3 lies right of d - tau2 = 0.2, which transition_points
        # would refuse as LayersOverlap
        with pytest.raises(NonMonotone, match="not strictly increasing"):
            build_mesh(LayerParams(10.0, 10.0), (0.3, 0.3, 0.3, 0.3), 16, 0.5)

    def test_points_must_have_n_plus_one_entries(self):
        mesh = graded(5000.0, 16)
        with pytest.raises(ValueError, match="N\\+1 entries"):
            SpatialMesh(n=16, points=np.linspace(0.0, 1.0, 16), tau=mesh.tau,
                        layer=mesh.layer)


class TestUniformMesh:
    def test_lattice_and_landmarks(self):
        mesh = uniform_mesh(64)
        assert mesh.points[32] == 0.5
        assert mesh.tau == (0.125, 0.125, 0.125, 0.125)
        assert np.max(mesh.h[1:]) - np.min(mesh.h[1:]) == 0.0

    def test_rejects_off_lattice_discontinuity(self):
        with pytest.raises(ValueError):
            uniform_mesh(16, d=0.3)


class TestBisect:
    def test_midpoint_insertion(self):
        tiny = SpatialMesh(n=2, points=np.array([0.0, 0.5, 1.0]),
                           tau=(0.0, 0.0, 0.0, 0.0), layer=LayerParams(1.0, 1.0))
        fine = bisect(tiny)
        assert np.array_equal(fine.points, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_twice_inserts_three_points_per_interval(self):
        mesh = graded(5000.0, 64)
        fine = bisect(bisect(mesh))
        assert fine.n == 4 * 64
        assert fine.points.shape == (4 * 64 + 1,)

    def test_nesting_is_bit_exact(self):
        mesh = graded(5000.0, 64)
        fine = bisect(mesh)
        assert np.array_equal(fine.points[::2], mesh.points)

    def test_landmarks_preserved_at_doubled_indices(self):
        mesh = graded(6918.366643156417, 64)  # example-1 theta at eps=1e-8
        fine = bisect(mesh)
        for idx in (8, 24, 32, 40, 56):
            assert fine.points[2 * idx] == mesh.points[idx]
        assert fine.tau == mesh.tau

    @given(theta=st.floats(min_value=200.0, max_value=1e6),
           n_exp=st.integers(min_value=2, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_nesting_property(self, theta, n_exp):
        n = 8 * 2 ** n_exp
        lay = LayerParams(theta, theta)
        try:
            tau = transition_points(lay, n, 0.5)
        except LayersOverlap:
            return
        mesh = build_mesh(lay, tau, n, 0.5)
        fine = bisect(mesh)
        assert np.array_equal(fine.points[::2], mesh.points)
        assert np.all(np.diff(fine.points) > 0.0)


class TestTimeGrid:
    def test_uniform_spacing_and_final_time(self):
        grid = uniform_time_grid(1.0, 64)
        assert grid.dt == 1.0 / 64
        assert grid.times[0] == 0.0
        assert grid.times[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(np.diff(grid.times), grid.dt, rtol=0, atol=1e-16)

    def test_halved_grid_nests_bit_exactly(self):
        coarse = uniform_time_grid(1.0, 40)
        fine = uniform_time_grid(1.0, 80)
        assert np.array_equal(fine.times[::2], coarse.times)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            uniform_time_grid(1.0, 0)
        with pytest.raises(ValueError):
            uniform_time_grid(-1.0, 8)
