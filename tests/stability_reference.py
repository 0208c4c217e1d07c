"""The stability report of a finished solution, as ``march`` audits it."""

import numpy as np

from layersolve.problem import _evaluate
from layersolve.solver import _audit_report


def stability_report(sol, spec):
    """``_audit_report`` of max|p| and max|r| over the solution's times, q on
    its mesh and max|U|."""
    ends = np.array([(float(spec.p(t)), float(spec.r(t))) for t in sol.grid.times.tolist()])
    return _audit_report(spec, np.abs(ends).max(0), _evaluate(spec.q, sol.mesh.points),
                         float(np.max(np.abs(sol.values))))
