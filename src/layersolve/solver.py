"""Tridiagonal solves and time marching.

Thomas elimination is used without pivoting: every assembled system is an
M-matrix (checked at runtime under the default policy), so elimination is
stable and pivots cannot vanish.  A cheap residual pass after each solve
catches conditioning pathologies at extreme eps instead of guessing at a
remedy.  While a march's matrix repeats, its elimination is kept
(:class:`ThomasFactors`) and only the forward and back sweeps run again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .discretization import (TridiagonalSystem, build_operator, m_matrix_check,
                             sample_coefficients, step_rhs)
from .errors import (CheckWarning, MMatrixViolation, NonFiniteValue,
                     ResidualViolation, StabilityViolation, ZeroPivot)
from .mesh import SpatialMesh, TimeGrid
from .problem import _SAMPLE_DENSITY, ProblemSpec, _sample

__all__ = [
    "PIVOT_FLOOR",
    "RESIDUAL_RTOL",
    "CheckPolicy",
    "DiscreteSolution",
    "thomas_solve",
    "ThomasFactors",
    "thomas_factor",
    "residual_max_norm",
    "march",
    "AuditReport",
    "stability_audit",
]

PIVOT_FLOOR = 1e-300
RESIDUAL_RTOL = 1e-10
STABILITY_SLACK = 1e-8
_MATRIX_RTOL = 100.0 * np.finfo(float).eps


@dataclass(frozen=True)
class CheckPolicy:
    """Whether the runtime audits run during a march and how failures are handled.

    ``audit`` switches the M-matrix, residual and stability audits together.
    With ``strict`` a failed audit raises (MMatrixViolation, ResidualViolation,
    StabilityViolation); otherwise it warns and the march continues.  The
    default keeps the audits on in warn mode so experiments complete while
    logging anomalies.
    """

    audit: bool = True
    strict: bool = False

    @classmethod
    def strict_policy(cls) -> "CheckPolicy":
        return cls(strict=True)

    @classmethod
    def off(cls) -> "CheckPolicy":
        return cls(audit=False)


@dataclass(frozen=True, eq=False)
class DiscreteSolution:
    """Solution values on mesh x time grid; values[j][i] approximates u(x_i, t_j)."""

    mesh: SpatialMesh
    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.m + 1, self.mesh.n + 1)
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}")
        self.values.setflags(write=False)


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """Solve the tridiagonal system by Thomas elimination (no pivoting).

    Raises ZeroPivot (with the row index) when an eliminated pivot has
    magnitude below PIVOT_FLOOR.  Boundary identity rows come back bit-exact.
    """
    return _back_substitute(*_eliminate(sys))


def _eliminate(sys: TridiagonalSystem) -> tuple[list[float], list[float]]:
    """Forward elimination: the multipliers c and the swept right-hand side."""
    if sys.size < 3:
        raise ValueError("system must have at least 3 rows")
    sub = sys.sub.tolist()
    diag = sys.diag.tolist()
    sup = sys.sup.tolist()
    rhs = sys.rhs.tolist()

    piv = diag[0]
    if abs(piv) < PIVOT_FLOOR:
        raise ZeroPivot(0)
    ci = sup[0] / piv
    xi = rhs[0] / piv
    c = [ci]
    x = [xi]
    for s, d, u, r in zip(sub[1:], diag[1:], sup[1:], rhs[1:]):
        piv = d - s * ci
        if abs(piv) < PIVOT_FLOOR:
            raise ZeroPivot(len(c))
        ci = u / piv
        xi = (r - s * xi) / piv
        c.append(ci)
        x.append(xi)
    return c, x


def _back_substitute(c: list[float], y: list[float]) -> np.ndarray:
    xi = y[-1]
    x = [xi]
    for ci, yi in zip(c[-2::-1], y[-2::-1]):
        xi = yi - ci * xi
        x.append(xi)
    x.reverse()
    return np.array(x)


@dataclass(frozen=True, eq=False)
class ThomasFactors:
    """The pivots and multipliers of one Thomas elimination.

    ``solve`` repeats :func:`thomas_solve`'s forward and back sweeps for a
    new right-hand side with the same operations in the same order, so its
    result is bitwise equal to ``thomas_solve`` on the same system.
    """

    sub: list[float]
    piv: list[float]
    c: list[float]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        r = rhs.tolist()
        if len(r) != len(self.piv):
            raise ValueError(f"rhs must have {len(self.piv)} entries, got {len(r)}")
        xi = r[0] / self.piv[0]
        y = [xi]
        for s, p, ri in zip(self.sub[1:], self.piv[1:], r[1:]):
            xi = (ri - s * xi) / p
            y.append(xi)
        return _back_substitute(self.c, y)


def thomas_factor(sys: TridiagonalSystem) -> ThomasFactors:
    """Eliminate the matrix of ``sys`` once; its right-hand side is ignored.

    Raises ZeroPivot (with the row index) exactly where :func:`thomas_solve`
    would on the same matrix.  The pivots diag - sub*c are formed
    elementwise with the same two roundings as the elimination loop.
    """
    c, _ = _eliminate(sys)
    piv = sys.diag.copy()
    piv[1:] -= sys.sub[1:] * np.array(c[:-1])
    return ThomasFactors(sub=sys.sub.tolist(), piv=piv.tolist(), c=c)


def residual_max_norm(sys: TridiagonalSystem, x: np.ndarray) -> float:
    """Max-norm of A x - rhs for the stored tridiagonal matrix."""
    return float(np.max(np.abs(sys.apply(x) - sys.rhs)))


def _eval_on(fn, arg) -> np.ndarray:
    vals = np.asarray(fn(arg), dtype=float)
    return np.ascontiguousarray(np.broadcast_to(vals, np.shape(arg)))


def _f_sup(spec: ProblemSpec) -> float:
    ts = np.linspace(0.0, spec.t_final, _SAMPLE_DENSITY)
    sup = 0.0
    for lo, hi, fn in ((0.0, spec.d, spec.f.left), (spec.d, 1.0, spec.f.right)):
        xs = np.linspace(lo, hi, _SAMPLE_DENSITY)
        sup = max(sup, float(np.max(np.abs(_sample(fn, xs, ts)))))
    return sup


def _data_sup(spec: ProblemSpec, mesh: SpatialMesh, grid: TimeGrid) -> float:
    p_vals = np.array([float(spec.p(t)) for t in grid.times])
    r_vals = np.array([float(spec.r(t)) for t in grid.times])
    q_vals = _eval_on(spec.q, mesh.points)
    return float(max(np.max(np.abs(p_vals)), np.max(np.abs(r_vals)),
                     np.max(np.abs(q_vals))))


def _stability_bound(data_sup: float, f_sup: float, beta: float) -> float:
    """The a priori bound data_sup + f_sup/beta, plus STABILITY_SLACK."""
    return data_sup + f_sup / beta + STABILITY_SLACK


def _fail(strict: bool, exc_type, message: str) -> None:
    if strict:
        raise exc_type(message)
    warnings.warn(message, CheckWarning, stacklevel=3)


def march(spec: ProblemSpec, mesh: SpatialMesh, grid: TimeGrid,
          checks: CheckPolicy = CheckPolicy()) -> DiscreteSolution:
    """Advance the fully discrete scheme from t = 0 to t = T.

    values[0] is q sampled on the mesh; each later level solves one
    Crank-Nicolson system.  Boundary entries are assigned from p and r, not
    solved.  a, b and c are sampled once per step; while the samples stay
    bitwise equal to the previous step's, the matrix, its M-matrix verdict
    and (from the first repeat on) its Thomas factors are reused, which
    gives bitwise the same values as solving every step afresh.  Audits run
    per the policy; the stability audit compares the running max against
    data_sup + sup|f|/beta.
    """
    n = mesh.n
    values = np.empty((grid.m + 1, n + 1))
    values[0] = _eval_on(spec.q, mesh.points)
    if not np.all(np.isfinite(values[0])):
        raise NonFiniteValue("initial data contains non-finite values")

    if checks.audit:
        bound = _stability_bound(_data_sup(spec, mesh, grid), _f_sup(spec), spec.beta)
    running_max = float(np.max(np.abs(values[0])))

    key = op = factors = row_scale = None
    for j in range(grid.m):
        t_next = float(grid.times[j + 1])
        samples = sample_coefficients(spec, mesh, t_next - 0.5 * grid.dt)
        new_key = tuple(arr.tobytes() for arr in samples)
        reused = new_key == key
        if not reused:
            key = new_key
            op = build_operator(spec, mesh, grid.dt, samples)
            factors = None
            if checks.audit:
                row_scale = float(np.max(np.abs(op.sub) + np.abs(op.diag)
                                         + np.abs(op.sup)))
        sys = op.system(step_rhs(spec, mesh, op, t_next, grid.dt, values[j]))
        # an unchanged matrix has already had its verdict
        if checks.audit and not reused:
            report = m_matrix_check(sys)
            if not report.passed:
                _fail(checks.strict, MMatrixViolation,
                      f"M-matrix check failed at step j={j} (N={n}, M={grid.m}): "
                      f"{report.violations[:3]}")
        try:
            if not reused:
                u = thomas_solve(sys)
            else:
                # factored on the first repeat only, so a march whose matrix
                # changes every step never stores pivots
                if factors is None:
                    factors = thomas_factor(sys)
                u = factors.solve(sys.rhs)
        except ZeroPivot as exc:
            raise ZeroPivot(exc.row,
                            f"zero pivot at row {exc.row}, step j={j} "
                            f"(N={n}, M={grid.m})") from exc
        if not np.all(np.isfinite(u)):
            raise NonFiniteValue(f"non-finite value at step j={j} (N={n}, M={grid.m})")
        if checks.audit:
            res = residual_max_norm(sys, u)
            # rhs-anchored tolerance, plus a matrix-scale term for degenerate
            # (eps ~ 1) instances whose matrix entries dwarf the rhs
            tol = (RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(sys.rhs))))
                   + _MATRIX_RTOL * row_scale * (1.0 + float(np.max(np.abs(u)))))
            if res > tol:
                _fail(checks.strict, ResidualViolation,
                      f"solve residual {res:.3e} exceeds {tol:.3e} at step j={j} "
                      f"(N={n}, M={grid.m})")
        u[0] = sys.rhs[0]
        u[n] = sys.rhs[n]
        values[j + 1] = u
        running_max = max(running_max, float(np.max(np.abs(u))))
        if checks.audit and running_max > bound:
            _fail(checks.strict, StabilityViolation,
                  f"running max {running_max:.6g} exceeds stability bound "
                  f"{bound:.6g} at step j={j} (N={n}, M={grid.m})")
    return DiscreteSolution(mesh=mesh, grid=grid, values=values)


@dataclass(frozen=True)
class AuditReport:
    """Comparison of the computed solution against the a priori bound.

    The bound is data_sup + f_sup/beta (+ small slack); ``margin`` is how far
    below it the solution stays.
    """

    max_abs: float
    data_sup: float
    f_sup: float
    beta: float
    bound: float
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


def stability_audit(sol: DiscreteSolution, spec: ProblemSpec) -> AuditReport:
    """Check max |U| <= data_sup + sup|f|/beta + slack on a completed solution."""
    data_sup = _data_sup(spec, sol.mesh, sol.grid)
    f_sup = _f_sup(spec)
    bound = _stability_bound(data_sup, f_sup, spec.beta)
    max_abs = float(np.max(np.abs(sol.values)))
    return AuditReport(max_abs=max_abs, data_sup=data_sup, f_sup=f_sup,
                       beta=spec.beta, bound=bound, margin=bound - max_abs)
