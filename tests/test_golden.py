"""Golden double-mesh ladders of the published-table configurations, and
golden output bytes of three marches.

The ladder values were recorded from the per-step assemble + Thomas march
before the operator was reused across time steps.  A change that only
reorders floating-point work stays within LADDER_RTOL; a change to the
scheme, the mesh or the refinement does not.  The march bytes admit no
change at all, under either Thomas kernel.
"""

import dataclasses
import hashlib

import pytest

from layersolve import (CheckPolicy, convergence_study, derive_regime, lookup,
                        manufactured_sine, march, solver, spatial_mesh_for,
                        uniform_mesh, uniform_time_grid)

LADDER_RTOL = 1e-9

# (key, epsilon, mu) -> E at N = M = 64, 128, 256, 512
GOLDEN_E = {
    ("example1", 1e-8, 1e-6): (0.022022703779055353, 0.015836167280520175,
                               0.004769373062417925, 0.0013285492130897802),
    ("example2", 1e-12, 1e-8): (0.03303261167266047, 0.023753644899267012,
                                0.007153858630534193, 0.0019927643144005414),
}


@pytest.mark.parametrize("key,epsilon,mu", sorted(GOLDEN_E))
def test_table_ladder_matches_golden(key, epsilon, mu):
    report = convergence_study(lookup(key, epsilon, mu), 64, 64, 4,
                               checks=CheckPolicy.strict_policy())
    got = [rec.e for rec in report.levels]
    assert got == pytest.approx(GOLDEN_E[key, epsilon, mu], rel=LADDER_RTOL,
                                abs=0.0)


# The march's output bytes, as sha256 of values.tobytes(); E is only held to
# LADDER_RTOL above, so these catch a reordered floating-point operation.
KERNELS = [solver._PYTHON_KERNEL] + ([solver._KERNEL] if solver.KERNEL == "c" else [])


def _example1_march(b_scale, checks):
    base = lookup("example1", 1e-8, 1e-6)
    spec = dataclasses.replace(base, b=lambda x, t: base.b(x, t) * b_scale(t))
    mesh = spatial_mesh_for(derive_regime(base), base.params, 64, base.d)
    return march(spec, mesh, uniform_time_grid(1.0, 64), checks)


MARCHES = {
    # t-independent a, b, c: one matrix, factored once and re-solved
    "example1-reused": lambda: _example1_march(lambda t: 1.0,
                                               CheckPolicy.strict_policy()),
    # b*(1+t): a new matrix every step
    "example1-t-dependent": lambda: _example1_march(lambda t: 1.0 + t,
                                                    CheckPolicy.off()),
    "manufactured-sine": lambda: march(manufactured_sine().spec, uniform_mesh(64),
                                       uniform_time_grid(1.0, 32),
                                       CheckPolicy.strict_policy()),
}

GOLDEN_SHA256 = {
    "example1-reused":
        "134a035863d9752a01951b4689102390b3808a0cbabd058859ed168abac4cf22",
    "example1-t-dependent":
        "2a0f5293f2e6a51bd05c58f593bf9affe0a227572b49868e0b50eb853047f717",
    "manufactured-sine":
        "c35616308257dc0760d4ec4182a487cb0898bf12a14b71277be9ce5240657cd7",
}


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("name", sorted(MARCHES))
def test_march_bytes_match_golden(monkeypatch, name, kernel):
    monkeypatch.setattr(solver, "_KERNEL", kernel)
    values = MARCHES[name]().values
    assert hashlib.sha256(values.tobytes()).hexdigest() == GOLDEN_SHA256[name]
