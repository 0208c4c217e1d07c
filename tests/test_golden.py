"""Golden double-mesh ladders of the published-table configurations.

The values were recorded from the per-step assemble + Thomas march before
the operator was reused across time steps.  A change that only reorders
floating-point work stays within LADDER_RTOL; a change to the scheme, the
mesh or the refinement does not.
"""

import pytest

from layersolve import CheckPolicy, convergence_study, lookup

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
