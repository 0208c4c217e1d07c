"""Hypothesis validation and regime classification."""

import dataclasses
import math

import numpy as np
import pytest

from layersolve import (CompatibilityViolation, FloorViolation,
                        PerturbationParams, PiecewiseField, ProblemSpec,
                        RegimeCase, RegimeConstants, SignViolation,
                        derive_regime, lookup, validate)

# min over the 101x101-per-branch sample grid of (1+e^x)/(1+x(1-x)),
# frozen from a brute-force double loop (reproduced in test below)
RHO_EXAMPLE1_101 = 1.9145518803655759


def brute_force_rho(sample_density=101):
    best = None
    for xs in (np.linspace(0.0, 0.5, sample_density),
               np.linspace(0.5, 1.0, sample_density)):
        for x in xs:
            for t in np.linspace(0.0, 1.0, sample_density):
                ratio = abs(1.0 + math.exp(x)) / abs(1.0 + x * (1.0 - x))
                best = ratio if best is None else min(best, ratio)
    return best


def make_spec(a_left=None, b=None, q=None, p=None, epsilon=1e-8, mu=1e-6):
    """Example-1 coefficients with optional overrides for negative tests."""
    a = PiecewiseField(
        left=a_left or (lambda x, t: -(1.0 + x * (1.0 - x))),
        right=lambda x, t: 1.0 + x * (1.0 - x), d=0.5)
    f = PiecewiseField(
        left=lambda x, t: -2.0 * (1.0 + x * x) * t,
        right=lambda x, t: 2.0 * (1.0 + x * x) * t, d=0.5)
    return ProblemSpec(
        a=a, f=f,
        b=b or (lambda x, t: 1.0 + np.exp(x)),
        c=lambda x, t: 1.0,
        p=p or (lambda t: 0.0), r=lambda t: 0.0,
        q=q or (lambda x: 0.0 * x),
        d=0.5, t_final=1.0,
        params=PerturbationParams(epsilon, mu),
        alpha1=1.0, alpha2=1.0, beta=2.0, eta=1.0)


class TestPiecewiseField:
    def test_d_must_be_interior(self):
        with pytest.raises(ValueError):
            PiecewiseField(left=lambda x, t: x, right=lambda x, t: x, d=1.0)


class TestPerturbationParams:
    @pytest.mark.parametrize("eps,mu", [(0.0, 0.5), (1.5, 0.5), (0.5, 0.0),
                                        (0.5, 1.2), (-1e-8, 1e-6)])
    def test_rejects_out_of_range(self, eps, mu):
        with pytest.raises(ValueError):
            PerturbationParams(eps, mu)

    def test_accepts_boundary(self):
        PerturbationParams(1.0, 1.0)


class TestProblemSpec:
    @pytest.mark.parametrize("field,value,match", [
        ("t_final", 0.0, "t_final"), ("t_final", -1.0, "t_final"),
        ("alpha1", 0.0, "alpha1"), ("alpha2", -1.0, "alpha2"),
        ("beta", 0.0, "beta"), ("eta", -0.5, "eta"),
        ("d", 0.25, "discontinuity point"),
        ("f", PiecewiseField(left=lambda x, t: x, right=lambda x, t: x, d=0.25),
         "discontinuity point"),
    ], ids=["t-zero", "t-negative", "alpha1", "alpha2", "beta", "eta", "d", "f-d"])
    def test_rejects_inadmissible_fields(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(make_spec(), **{field: value})


class TestRegimeConstants:
    @pytest.mark.parametrize("rho,alpha", [(0.0, 1.0), (1.0, -1.0)])
    def test_rejects_non_positive_constants(self, rho, alpha):
        with pytest.raises(ValueError, match="rho and alpha must be positive"):
            RegimeConstants(rho=rho, alpha=alpha, case=RegimeCase.CASE_I)


class TestValidate:
    def test_example1_passes_all_checks(self):
        report = validate(lookup("example1", 1e-8, 1e-6))
        assert report.passed
        assert len(report.checks) == 6
        assert {c.name for c in report.checks} == {
            "a-left-sign", "a-right-sign", "b-floor", "c-floor",
            "corner-left", "corner-right"}

    def test_wrong_sign_on_left_branch(self):
        spec = make_spec(a_left=lambda x, t: 1.0 + 0.0 * x)
        with pytest.raises(SignViolation):
            validate(spec)

    def test_wrong_sign_on_right_branch(self):
        spec = make_spec()
        spec = dataclasses.replace(spec, a=PiecewiseField(
            left=spec.a.left, right=lambda x, t: 0.5 + 0.0 * x, d=0.5))  # below alpha2 = 1
        with pytest.raises(SignViolation, match="right branch") as err:
            validate(spec)
        assert [c.name for c in err.value.report.checks if not c.passed] == ["a-right-sign"]

    def test_floor_violation_reports_worst_point(self):
        spec = make_spec(b=lambda x, t: 0.5 + x)  # dips below beta=2 near x=0
        with pytest.raises(FloorViolation) as err:
            validate(spec)
        report = err.value.report
        failed = [c for c in report.checks if not c.passed]
        assert failed[0].name == "b-floor"
        assert failed[0].worst_x == pytest.approx(0.0)
        assert failed[0].observed == pytest.approx(0.5)

    def test_corner_mismatch(self):
        spec = make_spec(q=lambda x: 1.0 + 0.0 * x)  # q(0)=1 vs p(0)=0
        with pytest.raises(CompatibilityViolation):
            validate(spec)

    def test_report_collects_without_raising(self):
        spec = make_spec(a_left=lambda x, t: 1.0 + 0.0 * x,
                         q=lambda x: 1.0 + 0.0 * x)
        with pytest.raises(SignViolation) as err:
            validate(spec)
        report = err.value.report
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "a-left-sign" in failed
        assert "corner-left" in failed

    def test_opposite_one_sided_signs_at_d(self):
        spec = lookup("example1", 1e-8, 1e-6)
        validate(spec)
        for t in np.linspace(0.0, 1.0, 7):
            assert float(spec.a.left(spec.d, t)) < 0.0
            assert float(spec.a.right(spec.d, t)) > 0.0
        assert spec.alpha1 * spec.alpha2 > 0.0


class TestRegistry:
    def test_example_coefficients_at_sample_points(self):
        spec1 = lookup("example1", 1e-8, 1e-6)
        spec2 = lookup("example2", 1e-8, 1e-6)
        # convection: -(1 + x(1-x)) left, +(1 + x(1-x)) right, t-independent
        assert float(spec1.a.left(0.25, 0.7)) == pytest.approx(-1.1875)
        assert float(spec1.a.right(0.75, 0.1)) == pytest.approx(1.1875)
        # sources: left branch shared, right branch differs by the factor 1.5
        assert float(spec1.f.left(0.25, 0.5)) == pytest.approx(-1.0625)
        assert float(spec1.f.right(0.75, 0.5)) == pytest.approx(1.5625)
        assert float(spec2.f.left(0.25, 0.5)) == float(spec1.f.left(0.25, 0.5))
        assert float(spec2.f.right(0.75, 0.5)) == pytest.approx(1.5 * 1.5625)
        # reaction, time coefficient, geometry, homogeneous data
        for spec in (spec1, spec2):
            assert float(spec.b(1.0, 0.3)) == pytest.approx(1.0 + math.e)
            assert float(spec.c(0.4, 0.9)) == 1.0
            assert spec.d == 0.5 and spec.t_final == 1.0
            assert float(spec.p(0.5)) == 0.0
            assert float(spec.r(0.5)) == 0.0
            assert float(spec.q(0.3)) == 0.0

    def test_params_are_threaded_through(self):
        spec = lookup("example2", 1e-12, 1e-8)
        assert spec.params.epsilon == 1e-12
        assert spec.params.mu == 1e-8


class TestDeriveRegime:
    def test_rho_matches_brute_force_on_example1(self):
        regime = derive_regime(lookup("example1", 1e-8, 1e-6))
        assert regime.rho == pytest.approx(brute_force_rho(), rel=1e-14)
        assert regime.rho == pytest.approx(RHO_EXAMPLE1_101, rel=1e-14)
        assert regime.alpha == 1.0

    def test_table1_regime_is_case_one(self):
        # alpha*mu^2 = 1e-12 <= rho*eps ~ 1.9e-8
        regime = derive_regime(lookup("example1", 1e-8, 1e-6))
        assert regime.case is RegimeCase.CASE_I

    def test_boundary_equality_is_case_one(self):
        # b = |a| forces rho = 1 exactly; with eps = mu = alpha = 1 the
        # predicate alpha*mu^2 <= rho*eps holds with equality
        spec = make_spec(b=lambda x, t: 1.0 + x * (1.0 - x), epsilon=1.0, mu=1.0)
        regime = derive_regime(spec)
        assert regime.rho == pytest.approx(1.0, abs=0.0)
        assert regime.case is RegimeCase.CASE_I

    def test_large_mu_is_case_two(self):
        regime = derive_regime(lookup("example1", 1e-8, 1e-2))
        assert regime.case is RegimeCase.CASE_II

    @pytest.mark.parametrize("eps,mu", [(1e-8, 1e-6), (1e-12, 1e-8),
                                        (0.25, 0.5), (1e-4, 1e-3)])
    def test_case_predicate_scale_consistency(self, eps, mu):
        # multiplying eps by 4 and mu by 2 scales both sides of
        # alpha*mu^2 <= rho*eps by 4, so the case cannot change
        if not (4 * eps <= 1.0 and 2 * mu <= 1.0):
            pytest.skip("scaled parameters leave (0,1]")
        base = derive_regime(lookup("example1", eps, mu))
        scaled = derive_regime(lookup("example1", 4 * eps, 2 * mu))
        assert base.case is scaled.case
