"""Tridiagonal solves and time marching.

Thomas elimination is used without pivoting: every assembled system is an
M-matrix (checked at runtime under the default policy), so elimination is
stable and pivots cannot vanish.  A cheap residual pass after each solve
catches conditioning pathologies at extreme eps instead of guessing at a
remedy.  While a march's matrix repeats, its elimination is kept
(:class:`ThomasFactors`) and only the forward and back sweeps run again.

The sweeps run in C (``_thomas.c``, compiled with the system ``cc`` on first
import and cached in ``__pycache__``) or, when that cannot be built, in the
Python loops below; both give bitwise the same doubles.  ``KERNEL`` says
which one was loaded: ``"c"`` or ``"python"``.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .discretization import (TridiagonalSystem, build_operator, m_matrix_check,
                             sample_coefficients, step_rhs)
from .errors import (CheckWarning, MMatrixViolation, NonFiniteValue,
                     ResidualViolation, StabilityViolation, ZeroPivot)
from .mesh import SpatialMesh, TimeGrid
from .problem import ProblemSpec, _sample, _sample_grids

__all__ = [
    "KERNEL",
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
    return _eliminate(sys)[0]


def _eliminate(sys: TridiagonalSystem):
    """The loaded kernel's fused solve: (x, (sub, pivots, multipliers))."""
    if sys.size < 3:
        raise ValueError("system must have at least 3 rows")
    return _KERNEL.solve(sys)


def _solve_py(sys: TridiagonalSystem):
    """Forward elimination and back sweep in Python floats."""
    sub = sys.sub.tolist()
    diag = sys.diag.tolist()
    sup = sys.sup.tolist()
    rhs = sys.rhs.tolist()

    piv = diag[0]
    if abs(piv) < PIVOT_FLOOR:
        raise ZeroPivot(0)
    ci = sup[0] / piv
    xi = rhs[0] / piv
    pivots = [piv]
    c = [ci]
    y = [xi]
    for s, d, u, r in zip(sub[1:], diag[1:], sup[1:], rhs[1:]):
        piv = d - s * ci
        if abs(piv) < PIVOT_FLOOR:
            raise ZeroPivot(len(c))
        ci = u / piv
        xi = (r - s * xi) / piv
        pivots.append(piv)
        c.append(ci)
        y.append(xi)
    return _back_substitute(c, y), (sub, pivots, c)


def _resolve_py(sub: list[float], piv: list[float], c: list[float],
                rhs: np.ndarray) -> np.ndarray:
    """The forward and back sweeps of :func:`_solve_py` for a new rhs."""
    r = rhs.tolist()
    xi = r[0] / piv[0]
    y = [xi]
    for s, p, ri in zip(sub[1:], piv[1:], r[1:]):
        xi = (ri - s * xi) / p
        y.append(xi)
    return _back_substitute(c, y)


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
    result is bitwise equal to ``thomas_solve`` on the same system.  The
    fields are in the format of the kernel that factored them.
    """

    sub: Sequence[float]
    piv: Sequence[float]
    c: Sequence[float]

    def __post_init__(self):
        # the compiled re-solve reads len(piv) entries of each
        if not 3 <= len(self.piv) == len(self.sub) == len(self.c):
            raise ValueError("sub, piv and c must have one length, at least 3")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if np.shape(rhs) != (len(self.piv),):
            raise ValueError(f"rhs must have {len(self.piv)} entries, "
                             f"got shape {np.shape(rhs)}")
        return _KERNEL.resolve(self.sub, self.piv, self.c, rhs)


def thomas_factor(sys: TridiagonalSystem) -> ThomasFactors:
    """Eliminate the matrix of ``sys`` once; its right-hand side is ignored.

    Raises ZeroPivot (with the row index) exactly where :func:`thomas_solve`
    would on the same matrix, since it runs the same elimination.
    """
    return ThomasFactors(*_eliminate(sys)[1])


class _Kernel(NamedTuple):
    """A fused solve, ``solve(sys) -> (x, factors)``, and the re-solve
    ``resolve(*factors, rhs) -> x`` on the factors it returned."""

    name: str
    solve: Callable
    resolve: Callable


_PYTHON_KERNEL = _Kernel("python", _solve_py, _resolve_py)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_thomas.c")
# -ffp-contract=off: a - b*c must not become a fused multiply-add, or the
# compiled kernel stops being bitwise equal to the Python loops
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _c_kernel(lib: ctypes.CDLL) -> _Kernel:
    """Wrap ``thomas_solve`` and ``thomas_resolve`` of the compiled source."""
    c_solve, c_resolve = lib.thomas_solve, lib.thomas_resolve
    c_solve.argtypes = [ctypes.c_long] + [ctypes.c_void_p] * 7
    c_solve.restype = ctypes.c_long
    c_resolve.argtypes = [ctypes.c_long] + [ctypes.c_void_p] * 5
    c_resolve.restype = None

    def solve(sys):
        bands = [np.ascontiguousarray(a, dtype=float)
                 for a in (sys.sub, sys.diag, sys.sup, sys.rhs)]
        c, piv, x = out = [np.empty(sys.size) for _ in range(3)]
        row = c_solve(sys.size, *[a.ctypes.data for a in bands + out])
        if row >= 0:
            raise ZeroPivot(row)
        return x, (bands[0], piv, c)

    def resolve(sub, piv, c, rhs):
        arrays = [np.ascontiguousarray(a, dtype=float) for a in (sub, piv, c, rhs)]
        x = np.empty(len(piv))
        c_resolve(len(piv), *[a.ctypes.data for a in arrays + [x]])
        return x

    return _Kernel("c", solve, resolve)


def _load_kernel(directory: str) -> _Kernel:
    """The compiled kernel, built into ``directory`` on first use.

    The library's name carries a CRC of the source and flags, so an edited
    source is rebuilt.  Falls back to the Python loops when it cannot be
    built or loaded (no ``cc``, a compile error, an unwritable directory).
    """
    try:
        with open(_SOURCE, "rb") as fh:
            tag = zlib.crc32(fh.read() + " ".join(_CFLAGS).encode())
        path = os.path.join(directory, f"_thomas-{tag:08x}.so")
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            _build(path)
            lib = ctypes.CDLL(path)
    except OSError:
        return _PYTHON_KERNEL
    return _c_kernel(lib)


def _build(path: str) -> None:
    """Compile _SOURCE into ``path``; raise OSError when that fails.

    The library is built under a temporary name and renamed into place, so
    concurrent first imports are safe and a failed build leaves no file.
    """
    import subprocess

    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_thomas-", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        proc = subprocess.run(["cc", *_CFLAGS, "-o", tmp, _SOURCE],
                              stdin=subprocess.DEVNULL, capture_output=True)
        if proc.returncode != 0:
            raise OSError(f"cc exited with status {proc.returncode}")
        os.chmod(tmp, 0o755)  # mkstemp's 0600 would hide it from other users
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


_KERNEL = _load_kernel(os.path.join(os.path.dirname(_SOURCE), "__pycache__"))
KERNEL = _KERNEL.name


def residual_max_norm(sys: TridiagonalSystem, x: np.ndarray) -> float:
    """Max-norm of A x - rhs for the stored tridiagonal matrix."""
    return float(np.max(np.abs(sys.apply(x) - sys.rhs)))


def _eval_on(fn, arg) -> np.ndarray:
    vals = np.asarray(fn(arg), dtype=float)
    return np.ascontiguousarray(np.broadcast_to(vals, np.shape(arg)))


def _f_sup(spec: ProblemSpec) -> float:
    xs_l, xs_r, ts = _sample_grids(spec)
    sup = 0.0
    for xs, fn in ((xs_l, spec.f.left), (xs_r, spec.f.right)):
        sup = max(sup, float(np.max(np.abs(_sample(fn, xs, ts)))))
    return sup


def _data_sup(spec: ProblemSpec, mesh: SpatialMesh, grid: TimeGrid) -> float:
    p_vals = np.array([float(spec.p(t)) for t in grid.times])
    r_vals = np.array([float(spec.r(t)) for t in grid.times])
    q_vals = _eval_on(spec.q, mesh.points)
    return float(max(np.max(np.abs(p_vals)), np.max(np.abs(r_vals)),
                     np.max(np.abs(q_vals))))


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
    per the policy; :func:`stability_audit` runs once, on the finished values.
    """
    n = mesh.n
    values = np.empty((grid.m + 1, n + 1))
    values[0] = _eval_on(spec.q, mesh.points)
    if not np.all(np.isfinite(values[0])):
        raise NonFiniteValue("initial data contains non-finite values")

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
    sol = DiscreteSolution(mesh=mesh, grid=grid, values=values)
    if checks.audit and not (report := stability_audit(sol, spec)).passed:
        # step j produces level j + 1
        levels = np.maximum(values[1:].max(axis=1), -values[1:].min(axis=1))
        _fail(checks.strict, StabilityViolation,
              f"max|U| {report.max_abs:.6g} exceeds stability bound {report.bound:.6g}, "
              f"first at step j={int(np.argmax(levels > report.bound))} (N={n}, M={grid.m})")
    return sol


@dataclass(frozen=True)
class AuditReport:
    """A solution against :func:`stability_audit`'s bound; ``margin`` is bound - max_abs."""

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
    """Check max |U| <= data_sup + sup|f|/beta + STABILITY_SLACK on a finished solution.

    The only statement of the a priori bound.  max |U| is bitwise
    ``np.max(np.abs(values))``, NaN included, but copies no values.
    """
    data_sup = _data_sup(spec, sol.mesh, sol.grid)
    f_sup = _f_sup(spec)
    bound = data_sup + f_sup / spec.beta + STABILITY_SLACK
    max_abs = abs(max(float(sol.values.max()), -float(sol.values.min())))
    return AuditReport(max_abs=max_abs, data_sup=data_sup, f_sup=f_sup,
                       beta=spec.beta, bound=bound, margin=bound - max_abs)
