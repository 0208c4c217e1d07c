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

A step is assembled in three parts: sample a, b, c and f at t_mid
(:func:`sample_coefficients`), build the matrix A from the first three
(:func:`_bands`), and form the right side from A itself and f
(:func:`step_rhs`).  A is one (4, N+1) array of bands, sub, diag, sup and
4c/dt, the one representation of a step matrix; every tridiagonal routine
takes such an array and reads rows 0-2.  The samples are arrays
over rows 1..N-1; a piecewise field takes its left branch below N/2 and its
right branch from N/2 on (:func:`_on_rows`).  Row N/2 is sampled like the
rows right of it, then overwritten by the transmission row.  A's
t-independent part is one per-mesh array (:func:`stencil_weights`); a
march's kernel builds each new matrix from it as :func:`_bands` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import SpatialMesh
from .problem import PiecewiseField, ProblemSpec, _evaluate

__all__ = [
    "MMatrixReport",
    "sample_coefficients",
    "stencil_weights",
    "step_rhs",
    "m_matrix_check",
]


def _tridiagonal_apply(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the matrix whose sub, diag and sup are rows 0-2 of ``bands``."""
    sub, diag, sup = bands[:3]
    y = diag * x
    y[1:] += sub[1:] * x[:-1]
    y[:-1] += sup[:-1] * x[1:]
    return y


def _on_rows(field: PiecewiseField, mesh: SpatialMesh, t, out=None) -> np.ndarray:
    """a or f, as :func:`sample_coefficients` samples them; ``out`` is ``last``'s array."""
    mid, x = mesh.n // 2 - 1, mesh.points[1:-1]
    shape, right = np.broadcast(x, t).shape, None
    left = _evaluate(field.left, x[:mid], t)
    if len(shape) == 2 and not left.strides[0]:
        right = _evaluate(field.right, x[mid:], t)
        if not right.strides[0]:
            return np.broadcast_to(np.concatenate((left[0], right[0])), shape)
    rows = out[:len(t)] if out is not None and out.flags.writeable else np.empty(shape)
    rows[..., :mid], left = left, None  # let go of left before right is evaluated
    rows[..., mid:] = _evaluate(field.right, x[mid:], t) if right is None else right
    return rows


def sample_coefficients(spec: ProblemSpec, mesh: SpatialMesh, t_mid, last=None) -> tuple:
    """a, b, c and f at (x_i, t_mid) for rows i = 1..N-1: four arrays.

    a and f take their left branch below N/2 and their right branch from
    N/2 on, written into the arrays of ``last``, an earlier result on as many
    times or more, where it owns them.  A column of times (shape (steps, 1))
    gives one row per time, or one row broadcast over them (stride 0) for a
    sample constant in t.  Row N/2 is sampled but its matrix row is the
    transmission row, which overwrites it.  Together with the mesh, dt, eps
    and mu, a, b and c determine the step's matrix, so a march that finds
    all three arrays bitwise equal to the previous step's (row N/2
    included) reuses it.
    """
    x, (a, _, _, f) = mesh.points[1:-1], last or (None,) * 4
    return (_on_rows(spec.a, mesh, t_mid, a), _evaluate(spec.b, x, t_mid),
            _evaluate(spec.c, x, t_mid), _on_rows(spec.f, mesh, t_mid, f))


def stencil_weights(spec: ProblemSpec, mesh: SpatialMesh) -> np.ndarray:
    """The t-independent part of every step matrix, a (4, N+1) array by row:
    on PDE row i the weights 2eps/(h_i*(h_i+h_{i+1})), -2eps/(h_i*h_{i+1})
    and 2eps/(h_{i+1}*(h_i+h_{i+1})) of eps*d2 and the upwind spacing (h_i
    below N/2, h_{i+1} from N/2 on); on rows 0 and N the identity rows, and
    on row N/2 the transmission row D+ U = D- U, -1/h_i, 1/h_i + 1/h_{i+1}
    and -1/h_{i+1}, which every linear profile satisfies exactly."""
    n, mid, eps = mesh.n, mesh.n // 2, spec.params.epsilon
    hi, hi1 = mesh.h[1:-1], mesh.h[2:]
    w = np.zeros((4, n + 1))
    w[:, 1:-1] = (2.0 * eps / (hi * (hi + hi1)), -2.0 * eps / (hi * hi1),
                  2.0 * eps / (hi1 * (hi + hi1)), np.where(np.arange(1, n) < mid, hi, hi1))
    w[1, [0, n]] = 1.0
    hm, hp = mesh.h[mid], mesh.h[mid + 1]
    w[:3, mid] = -1.0 / hm, 1.0 / hm + 1.0 / hp, -1.0 / hp
    return w


def _bands(w: np.ndarray, mu: float, dt: float, a_v, b_v, c_v) -> np.ndarray:
    """sub, diag, sup and c4dt of one step matrix, a (4, N+1) array, from
    :func:`stencil_weights` and one step's a, b and c of
    :func:`sample_coefficients`; ``thomas_advance`` builds it in C with the
    same operations in the same order.

    Rows 0 and N are identity rows, row N/2 is the transmission row and
    every other row i is eps*d2 + mu*a*D* - cbar*I at x_i, negated, with D*
    upwind: D- below N/2 (a < 0 there), D+ above it.  c4dt is 4c/dt on
    those rows and 0 on rows 0, N/2 and N.
    """
    n = w.shape[1] - 1
    fixed = [0, n // 2, n]
    # entry k of each array below belongs to row k + 1
    left, right = slice(None, n // 2 - 1), slice(n // 2 - 1, None)
    cbar = b_v + 2.0 * c_v / dt
    conv = mu * a_v / w[3, 1:-1]
    w_minus, w_center, w_plus = w[0, 1:-1].copy(), w[1, 1:-1] - cbar, w[2, 1:-1].copy()
    w_minus[left] -= conv[left]
    w_center[left] += conv[left]
    w_plus[right] += conv[right]
    w_center[right] -= conv[right]
    bands = np.empty_like(w)
    bands[:, 1:-1] = -w_minus, -w_center, -w_plus, 4.0 * c_v / dt
    bands[:3, fixed], bands[3, fixed] = w[:3, fixed], 0.0
    return bands


def step_rhs(bands: np.ndarray, u_prev: np.ndarray, f: np.ndarray,
             p: float, r: float) -> np.ndarray:
    """Right-hand side of the step advancing ``u_prev`` to t_next, whose
    matrix ``bands`` is the array of :func:`_bands`.

    On PDE rows the stored (negated) gtilde equals -2f + (4c/dt) U - A U,
    since A's diagonal holds cbar = dbar + 4c/dt, with f sampled at t_mid;
    rows 0 and N carry the boundary values p and r at t_next, row N/2 zero.
    """
    rhs = bands[3] * u_prev - _tridiagonal_apply(bands, u_prev)
    rhs[1:-1] -= 2.0 * f
    rhs[0], rhs[-1] = p, r
    rhs[(len(rhs) - 1) // 2] = 0.0
    return rhs


def assemble(spec: ProblemSpec, mesh: SpatialMesh, t_next: float, dt: float,
             u_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The step advancing to t_next: its bands, the (4, N+1) array of
    :func:`_bands`, and its right side, of :func:`step_rhs`.

    Row 0 pins U_0 = p(t_next), row N pins U_N = r(t_next), row N/2 is the
    transmission row; every other row is the (negated) interior stencil.
    ``march`` does not call it, and it is not exported: tests import it from
    here, and ``perfbench/tracing.py`` wraps it here by name.
    """
    n = mesh.n
    if u_prev.shape != (n + 1,):
        raise ValueError(f"u_prev must have {n + 1} entries, got {u_prev.shape}")
    *coefs, f = sample_coefficients(spec, mesh, t_next - 0.5 * dt)
    bands = _bands(stencil_weights(spec, mesh), spec.params.mu, dt, *coefs)
    return bands, step_rhs(bands, u_prev, f, float(spec.p(t_next)), float(spec.r(t_next)))


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


def m_matrix_check(bands: np.ndarray) -> MMatrixReport:
    """Verify M-matrix structure of the matrix whose sub, diag and sup are
    rows 0-2 of ``bands`` (a row 3 is ignored), after normalizing each row's
    diagonal to be positive.

    Checks: off-diagonals <= 0 in every row except the two boundary identity
    rows; |diag| >= |sub| + |sup| in every row, strictly in at least one.
    Purely diagnostic; never raises.
    """
    n = bands.shape[1] - 1
    sign = np.where(bands[1] >= 0.0, 1.0, -1.0)
    sub, diag, sup = sign * bands[:3]

    violations = [(int(i), "zero diagonal") for i in np.flatnonzero(diag == 0.0)]
    violations += [(int(i) + 1, "positive off-diagonal")
                   for i in np.flatnonzero((sub[1:-1] > 0.0) | (sup[1:-1] > 0.0))]

    margin = np.abs(diag) - (np.abs(sub) + np.abs(sup))
    margin[0] = np.abs(diag[0]) - np.abs(sup[0])
    margin[n] = np.abs(diag[n]) - np.abs(sub[n])
    violations += [(int(i), "not diagonally dominant") for i in np.flatnonzero(margin < 0.0)]
    strict_rows = int(np.count_nonzero(margin > 0.0))
    if strict_rows == 0:
        violations.append((-1, "no strictly dominant row"))

    return MMatrixReport(passed=not violations, violations=tuple(violations),
                         min_margin=float(margin.min()), strict_rows=strict_rows)
