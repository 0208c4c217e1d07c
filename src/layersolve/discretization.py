"""One Crank-Nicolson step as a tridiagonal system.

Writing U^{j+1/2} = (U^{j+1} + U^j)/2 and clearing the factor 2, each time
step solves

    (eps*d2 + mu*a^{j+1/2}*D* - cbar*I) U^{j+1} = gtilde,

with
    cbar   = b^{j+1/2} + 2*c^{j+1/2}/dt,
    dbar   = b^{j+1/2} - 2*c^{j+1/2}/dt,
    gtilde = 2*f^{j+1/2} - eps*d2 U^j - mu*a^{j+1/2}*D* U^j + dbar*U^j,

where d2 is the non-uniform three-point second difference and D* the upwind
one-sided difference (D- left of the discontinuity index, D+ right of it).
For c == 1 this is exactly cbar = b + 2/dt, dbar = b - 2/dt.  Rows are stored
negated (positive diagonal, non-positive off-diagonals) so the M-matrix
structure can be read directly off the arrays.  Row N/2 carries the
transmission condition D+ U = D- U instead of the PDE.

A step is assembled in three parts: sample a, b, c at t_mid
(:func:`sample_coefficients`), build the matrix A from those samples
(:func:`build_operator`), and form the right side from A itself
(:func:`step_rhs`).  A march whose samples repeat reuses the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import SpatialMesh
from .problem import ProblemSpec

__all__ = [
    "StencilWeights",
    "TridiagonalSystem",
    "MMatrixReport",
    "discontinuity_row",
    "StepOperator",
    "sample_coefficients",
    "build_operator",
    "step_rhs",
    "assemble",
    "m_matrix_check",
]


@dataclass(frozen=True)
class StencilWeights:
    """Coefficients of (U_{i-1}, U_i, U_{i+1}) in one row, plus its right side."""

    w_minus: float
    w_center: float
    w_plus: float
    forcing: float


def _tridiagonal_apply(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
    y = diag * x
    y[1:] += sub[1:] * x[:-1]
    y[:-1] += sup[:-1] * x[1:]
    return y


@dataclass(frozen=True, eq=False)
class TridiagonalSystem:
    """Tridiagonal system over N+1 unknowns; sub[0] and sup[N] are unused (zero).

    Rows 0 and N are identity rows pinning the boundary values.  Interior
    rows follow the positive-diagonal convention.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        size = self.diag.shape[0]
        for name in ("sub", "diag", "sup", "rhs"):
            arr = getattr(self, name)
            if arr.shape != (size,):
                raise ValueError("sub, diag, sup, rhs must have the same length")
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return self.diag.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product of the stored tridiagonal matrix with x."""
        return _tridiagonal_apply(self.sub, self.diag, self.sup, x)


def discontinuity_row(mesh: SpatialMesh) -> StencilWeights:
    """Transmission row at i = N/2: D+ U = D- U, independent of t and u_prev.

    Returned directly in the stored (positive-diagonal) convention; any
    globally linear profile satisfies it exactly.
    """
    mid = mesh.n // 2
    hm = float(mesh.h[mid])
    hp = float(mesh.h[mid + 1])
    return StencilWeights(-1.0 / hm, 1.0 / hm + 1.0 / hp, -1.0 / hp, 0.0)


def sample_coefficients(spec: ProblemSpec, mesh: SpatialMesh,
                        t_mid: float) -> tuple[np.ndarray, ...]:
    """a, b and c at (x_i, t_mid) on the PDE rows: six arrays.

    The first three cover rows 1..N/2-1 (with a's left branch), the last
    three rows N/2+1..N-1 (right branch).  Together with the mesh, dt, eps
    and mu they determine the step's matrix, so bitwise-equal samples give
    a bitwise-equal :func:`build_operator`.
    """
    n = mesh.n
    mid = n // 2
    out = []
    for a_fn, idx in ((spec.a.left, np.arange(1, mid)),
                      (spec.a.right, np.arange(mid + 1, n))):
        xi = mesh.points[idx]
        for fn in (a_fn, spec.b, spec.c):
            out.append(np.broadcast_to(np.asarray(fn(xi, t_mid), dtype=float),
                                       xi.shape))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class StepOperator:
    """The matrix of one Crank-Nicolson step, without a right-hand side.

    ``sub``, ``diag`` and ``sup`` are stored as in :class:`TridiagonalSystem`;
    ``c4dt`` is 4c/dt on the PDE rows and 0 on rows 0, N/2 and N.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    c4dt: np.ndarray

    def system(self, rhs: np.ndarray) -> TridiagonalSystem:
        return TridiagonalSystem(sub=self.sub, diag=self.diag, sup=self.sup,
                                 rhs=rhs)


def build_operator(spec: ProblemSpec, mesh: SpatialMesh, dt: float,
                   samples: tuple[np.ndarray, ...]) -> StepOperator:
    """The step matrix from :func:`sample_coefficients` output.

    Rows 0 and N are identity rows, row N/2 is the transmission row and
    every other row i is eps*d2 + mu*a*D* - cbar*I at x_i, negated, with a
    from the branch on i's side of N/2 and D* upwind (D- left, D+ right).
    """
    n = mesh.n
    h = mesh.h
    eps = spec.params.epsilon
    mu = spec.params.mu
    mid = n // 2

    sub = np.zeros(n + 1)
    diag = np.zeros(n + 1)
    sup = np.zeros(n + 1)
    c4dt = np.zeros(n + 1)
    diag[0] = 1.0
    diag[n] = 1.0

    for left_side, idx, (a_v, b_v, c_v) in (
            (True, np.arange(1, mid), samples[:3]),
            (False, np.arange(mid + 1, n), samples[3:])):
        hi = h[idx]
        hi1 = h[idx + 1]
        hbar2 = hi + hi1
        cbar = b_v + 2.0 * c_v / dt

        w_minus = 2.0 * eps / (hi * hbar2)
        w_plus = 2.0 * eps / (hi1 * hbar2)
        w_center = -2.0 * eps / (hi * hi1) - cbar
        if left_side:
            # upwind D- on the left of the discontinuity (a < 0 there)
            w_minus = w_minus - mu * a_v / hi
            w_center = w_center + mu * a_v / hi
        else:
            w_plus = w_plus + mu * a_v / hi1
            w_center = w_center - mu * a_v / hi1

        sub[idx] = -w_minus
        diag[idx] = -w_center
        sup[idx] = -w_plus
        c4dt[idx] = 4.0 * c_v / dt

    row = discontinuity_row(mesh)
    sub[mid] = row.w_minus
    diag[mid] = row.w_center
    sup[mid] = row.w_plus
    return StepOperator(sub=sub, diag=diag, sup=sup, c4dt=c4dt)


def step_rhs(spec: ProblemSpec, mesh: SpatialMesh, op: StepOperator,
             t_next: float, dt: float, u_prev: np.ndarray) -> np.ndarray:
    """Right-hand side of the step advancing ``u_prev`` to t_next.

    On PDE rows the stored (negated) gtilde equals -2f + (4c/dt) U - A U,
    since A's diagonal holds cbar = dbar + 4c/dt; rows 0 and N carry p and r
    at t_next, row N/2 zero.
    """
    n = mesh.n
    mid = n // 2
    t_mid = t_next - 0.5 * dt
    rhs = op.c4dt * u_prev - _tridiagonal_apply(op.sub, op.diag, op.sup, u_prev)
    for f_fn, idx in ((spec.f.left, np.arange(1, mid)),
                      (spec.f.right, np.arange(mid + 1, n))):
        rhs[idx] -= 2.0 * np.asarray(f_fn(mesh.points[idx], t_mid), dtype=float)
    rhs[0] = float(spec.p(t_next))
    rhs[n] = float(spec.r(t_next))
    rhs[mid] = 0.0
    return rhs


def assemble(spec: ProblemSpec, mesh: SpatialMesh, t_next: float, dt: float,
             u_prev: np.ndarray) -> TridiagonalSystem:
    """Assemble the full system for the step advancing to t_next.

    Row 0 pins U_0 = p(t_next), row N pins U_N = r(t_next), row N/2 is the
    transmission row; every other row is the (negated) interior stencil of
    :func:`build_operator` with the right side of :func:`step_rhs`.
    """
    n = mesh.n
    if u_prev.shape != (n + 1,):
        raise ValueError(f"u_prev must have {n + 1} entries, got {u_prev.shape}")
    samples = sample_coefficients(spec, mesh, t_next - 0.5 * dt)
    op = build_operator(spec, mesh, dt, samples)
    return op.system(step_rhs(spec, mesh, op, t_next, dt, u_prev))


@dataclass(frozen=True)
class MMatrixReport:
    """Outcome of the M-matrix structure check.

    ``violations`` holds (row, reason) pairs; ``min_margin`` is the smallest
    diagonal-dominance margin |diag| - (|sub| + |sup|) over all rows and
    ``strict_rows`` counts rows where it is strictly positive.
    """

    passed: bool
    violations: tuple[tuple[int, str], ...]
    min_margin: float
    strict_rows: int


def m_matrix_check(sys: TridiagonalSystem) -> MMatrixReport:
    """Verify M-matrix structure after normalizing each row's diagonal to be positive.

    Checks: off-diagonals <= 0 in every row except the two boundary identity
    rows; |diag| >= |sub| + |sup| in every row, strictly in at least one.
    Purely diagnostic; never raises.
    """
    n = sys.size - 1
    sign = np.where(sys.diag >= 0.0, 1.0, -1.0)
    diag = sign * sys.diag
    sub = sign * sys.sub
    sup = sign * sys.sup

    violations: list[tuple[int, str]] = []
    for i in np.nonzero(diag == 0.0)[0]:
        violations.append((int(i), "zero diagonal"))
    interior = np.arange(1, n)
    bad_sign = interior[(sub[interior] > 0.0) | (sup[interior] > 0.0)]
    for i in bad_sign:
        violations.append((int(i), "positive off-diagonal"))

    margin = np.abs(diag) - (np.abs(sub) + np.abs(sup))
    margin[0] = np.abs(diag[0]) - np.abs(sup[0])
    margin[n] = np.abs(diag[n]) - np.abs(sub[n])
    for i in np.nonzero(margin < 0.0)[0]:
        violations.append((int(i), "not diagonally dominant"))
    strict_rows = int(np.count_nonzero(margin > 0.0))
    if strict_rows == 0:
        violations.append((-1, "no strictly dominant row"))

    return MMatrixReport(passed=not violations,
                         violations=tuple(violations),
                         min_margin=float(margin.min()),
                         strict_rows=strict_rows)
