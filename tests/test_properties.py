"""Properties of the scheme over random admissible problems.

Each drawn problem has a <= -alpha1 left of d, a >= alpha2 right of it,
b >= beta and c >= eta by construction, corner-compatible data, and
mu <= sqrt(rho*eps/alpha), so that ``validate`` passes and the regime is
case (i).  The source and the data (f, p, r, q) are linear in a coefficient
vector, which is what the linearity property varies.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersolve import (CheckPolicy, PerturbationParams, PiecewiseField,
                        ProblemSpec, RegimeCase, bisect, convergence_study,
                        derive_regime, m_matrix_check, march,
                        solver, spatial_mesh_for, uniform_time_grid, validate)
from layersolve.analysis import double_mesh_error
from layersolve.discretization import assemble

from stability_reference import stability_report

N, M = 16, 8
PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)

unit = st.floats(0.0, 1.0)
floor = st.floats(0.5, 2.0)
coef = st.floats(-5.0, 5.0)
# d, T, alpha1, alpha2, beta, eta, four coefficient growths, log10(eps) and
# mu as a fraction (log10) of its case-(i) ceiling
shapes = st.tuples(st.floats(0.3, 0.7), st.floats(0.5, 1.0), floor, floor, floor,
                   floor, unit, unit, unit, unit, st.floats(-10.0, -6.0),
                   st.floats(-3.0, 0.0))
# f on each branch: c0 + c1*x + c2*t; q = q0*(1-x) + q1*x + q2*x*(1-x);
# p = q0 + p1*t; r = q1 + r1*t
data_vectors = st.lists(coef, min_size=11, max_size=11).map(np.array)


def make_spec(shape, data):
    d, t_final, alpha1, alpha2, beta, eta, ga1, ga2, gb, gc, log_eps, log_mu = shape
    fl0, fl1, fl2, fr0, fr1, fr2, q0, q1, q2, p1, r1 = data
    epsilon = 10.0 ** log_eps
    # |a| <= 2 + 1*(1 + 1) and b >= 0.5 give rho >= 1/8, and alpha <= 2
    mu = 10.0 ** log_mu * np.sqrt(epsilon / 16.0)
    return ProblemSpec(
        a=PiecewiseField(left=lambda x, t: -(alpha1 + ga1 * (x * x + t)),
                         right=lambda x, t: alpha2 + ga2 * ((1.0 - x) * x + t), d=d),
        f=PiecewiseField(left=lambda x, t: fl0 + fl1 * x + fl2 * t,
                         right=lambda x, t: fr0 + fr1 * x + fr2 * t, d=d),
        b=lambda x, t: beta + gb * (x * x + t),
        c=lambda x, t: eta + gc * x * t,
        p=lambda t: q0 + p1 * t,
        r=lambda t: q1 + r1 * t,
        q=lambda x: q0 * (1.0 - x) + q1 * x + q2 * x * (1.0 - x),
        d=d, t_final=t_final, params=PerturbationParams(epsilon, mu),
        alpha1=alpha1, alpha2=alpha2, beta=beta, eta=eta)


def mesh_and_grid(spec):
    validate(spec)
    regime = derive_regime(spec)
    assert regime.case is RegimeCase.CASE_I
    mesh = spatial_mesh_for(regime, spec.params, N, spec.d)
    return mesh, uniform_time_grid(spec.t_final, M)


@PROPERTY
@given(shapes, data_vectors, st.floats(0.0, 1.0))
def test_step_matrix_is_an_m_matrix(shape, data, when):
    spec = make_spec(shape, data)
    mesh, grid = mesh_and_grid(spec)
    j = 1 + int(when * (M - 1))
    u_prev = spec.q(mesh.points)
    bands, _ = assemble(spec, mesh, float(grid.times[j]), grid.dt, u_prev)
    report = m_matrix_check(bands)
    assert report.passed, report.violations


@PROPERTY
@given(shapes, data_vectors)
def test_strict_march_stays_within_the_stability_bound(shape, data):
    spec = make_spec(shape, data)
    mesh, grid = mesh_and_grid(spec)
    sol = march(spec, mesh, grid, CheckPolicy.strict_policy())
    assert stability_report(sol, spec).passed


@PROPERTY
@given(shapes, data_vectors)
def test_march_audits_the_report_of_its_values(shape, data):
    """march takes max|U| per level from the kernel's norms and max|p|, max|r|
    from its steps' calls: the report it checks is the reference report of
    the returned values, under both kernels."""
    spec = make_spec(shape, data)
    mesh, grid = mesh_and_grid(spec)
    for kernel in KERNELS:
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_KERNEL", kernel)
            mp.setattr(solver, "_CHUNK_BYTES", 3 * 8 * (N - 1))
            original = solver._audit_report
            mp.setattr(solver, "_audit_report", lambda *args: seen.append(args) or original(*args))
            sol = march(spec, mesh, grid, CheckPolicy())
        assert original(*seen[0]) == stability_report(sol, spec)


@PROPERTY
@given(shapes, data_vectors, data_vectors, st.floats(-3.0, 3.0))
def test_march_is_linear_in_the_data(shape, data, other, k):
    mesh, grid = mesh_and_grid(make_spec(shape, data))
    off = CheckPolicy.off()
    one = march(make_spec(shape, data), mesh, grid, off).values
    two = march(make_spec(shape, other), mesh, grid, off).values
    both = march(make_spec(shape, data + k * other), mesh, grid, off).values
    scale = np.max(np.abs(one)) + abs(k) * np.max(np.abs(two))
    np.testing.assert_allclose(both, one + k * two, rtol=0, atol=1e-10 * (1.0 + scale))


KERNELS = [solver._PYTHON_KERNEL] + ([solver._KERNEL] if solver.KERNEL == "c" else [])


def with_reuse_runs(spec, t_jump):
    """spec with a and c frozen at t = 0 and b one higher from t_jump on: one
    matrix until t_jump, another after it."""
    a, b, c = spec.a, spec.b, spec.c
    return dataclasses.replace(
        spec, a=PiecewiseField(left=lambda x, t: a.left(x, 0.0),
                               right=lambda x, t: a.right(x, 0.0), d=spec.d),
        b=lambda x, t: b(x, 0.0) + np.where(t < t_jump, 0.0, 1.0),
        c=lambda x, t: c(x, 0.0))


@PROPERTY
@given(shapes, data_vectors)
def test_march_is_bitwise_equal_under_both_kernels(shape, data):
    spec = make_spec(shape, data)
    mesh, grid = mesh_and_grid(spec)
    # chunks of 3 steps: 0-2, 3-5 and a ragged 6-7, one advance call each;
    # the variant's matrix changes at step 4, mid-chunk
    variant = with_reuse_runs(spec, 4.0 * grid.dt)
    for case in (spec, variant):
        results = set()
        for kernel in KERNELS:
            calls = []

            def advance(*args, kernel=kernel):
                calls.append(len(args[5]))
                return kernel.advance(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "_KERNEL", kernel._replace(advance=advance))
                mp.setattr(solver, "_CHUNK_BYTES", 3 * 8 * (N - 1))
                sol = march(case, mesh, grid, CheckPolicy.strict_policy())
            results.add(sol.values.tobytes())
            assert calls == [3, 3, 2]
        assert len(results) == 1


@PROPERTY
@given(shapes, data_vectors, st.sampled_from([1, 3, 5]))
def test_streamed_study_error_is_bitwise_double_mesh_error(shape, data, steps):
    """The study folds each chunk of levels into E as its march produces it.
    Chunks of ``steps`` steps on the N = 32 level (1 on N = 64, 2, 6 or 10 on
    N = 16) start on odd levels and hold single odd levels, and E must still
    be bitwise the max over the full solutions."""
    spec = make_spec(shape, data)
    mesh, _ = mesh_and_grid(spec)
    meshes = [mesh, bisect(mesh), bisect(bisect(mesh))]
    strict = CheckPolicy.strict_policy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_CHUNK_BYTES", steps * 8 * (2 * N - 1))
        for kernel in KERNELS:
            mp.setattr(solver, "_KERNEL", kernel)
            sols = [march(spec, msh, uniform_time_grid(spec.t_final, M << k), strict)
                    for k, msh in enumerate(meshes)]
            expected = [double_mesh_error(c, f) for c, f in zip(sols, sols[1:])]
            report = convergence_study(spec, N, M, 2, checks=strict)
            assert np.array([rec.e for rec in report.levels]).tobytes() == \
                np.array(expected).tobytes()
