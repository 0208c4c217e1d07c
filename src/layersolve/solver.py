"""Tridiagonal solves and time marching.

Thomas elimination is used without pivoting: every assembled system is an
M-matrix (checked at runtime under the default policy), so elimination is
stable and pivots cannot vanish.  A residual check of each solve catches
conditioning pathologies at extreme eps instead of guessing at a remedy.
A march advances each chunk of steps in one kernel ``advance`` call, which
finds the steps whose a, b and c change bitwise, builds each of their
matrices from the mesh's stencil weights, eliminating each row as it is
built, and re-solves on its pivots for the steps that repeat it.  That is
each kernel's one elimination.  The compiled kernel takes the residual
norms from products it forms anyway: in the back sweep, or, when the next
step re-solves the same matrix, from the A U of that step's right side.

The kernel runs in C (``_thomas.c``, compiled with the system ``cc`` on first
import and cached in ``__pycache__``) or, when that cannot be built, in the
Python loops below; both give bitwise the same doubles and the same solution
text.  ``KERNEL`` says which one was loaded: ``"c"`` or ``"python"``.
:func:`thomas_solve`, for one system of bands and a right side, runs the
Python kernel's loop :func:`_solve_py` under either.  It and
:func:`residual_max_norm` are not exported: tests import them from here, and
``perfbench/tracing.py`` wraps them here by name.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .discretization import (_bands, _tridiagonal_apply, m_matrix_check, sample_coefficients,
                             stencil_weights, step_rhs)
from .errors import (CheckWarning, MMatrixViolation, NonFiniteValue,
                     ResidualViolation, StabilityViolation, ZeroPivot)
from .mesh import SpatialMesh, TimeGrid
from .problem import ProblemSpec, _evaluate, _sample, _sample_grids

__all__ = [
    "KERNEL",
    "PIVOT_FLOOR",
    "RESIDUAL_RTOL",
    "CheckPolicy",
    "DiscreteSolution",
    "march",
]

PIVOT_FLOOR = 1e-300
RESIDUAL_RTOL = 1e-10
STABILITY_SLACK = 1e-8
_MATRIX_RTOL = 100.0 * np.finfo(float).eps
_CHUNK_BYTES = 384 * 1024  # per array (a, b, c or f) of a march's chunk of steps


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


def thomas_solve(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs by Thomas elimination (no pivoting), where A's sub,
    diag and sup are rows 0-2 of ``bands`` (sub[0] and sup[N] unused).

    Raises ValueError unless there are at least 3 rows and ``rhs`` has one
    entry per row, and ZeroPivot (with the row index) when an eliminated
    pivot has magnitude below PIVOT_FLOOR.  Boundary identity rows come back
    bit-exact.
    """
    if bands.ndim != 2 or len(bands) < 3 or rhs.shape != bands.shape[1:] or len(rhs) < 3:
        raise ValueError(f"bands {bands.shape} and rhs {rhs.shape} are not a system "
                         "of at least 3 rows")
    return _solve_py(bands, rhs)


def _solve_py(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward elimination and back sweep in Python floats."""
    (sub, diag, sup), rhs = bands[:3].tolist(), rhs.tolist()
    piv = diag[0]
    if abs(piv) < PIVOT_FLOOR:
        raise ZeroPivot(0)
    ci = sup[0] / piv
    xi = rhs[0] / piv
    c = [ci]
    y = [xi]
    for s, d, u, r in zip(sub[1:], diag[1:], sup[1:], rhs[1:]):
        piv = d - s * ci
        if abs(piv) < PIVOT_FLOOR:
            raise ZeroPivot(len(c))
        ci = u / piv
        xi = (r - s * xi) / piv
        c.append(ci)
        y.append(xi)
    xi = y[-1]
    x = [xi]
    for ci, yi in zip(c[-2::-1], y[-2::-1]):
        xi = yi - ci * xi
        x.append(xi)
    x.reverse()
    return np.array(x)


@np.errstate(invalid="ignore", over="ignore")  # a step made non-finite is returned, not warned
def _advance_py(w, mu, dt, coefs, is_new, f, ends, u, audit, bands, norms, last, have_last):
    """Step k solves for u[k + 1] from u[k], f[k] and ends[k] = (p, r) by
    :func:`_solve_py`.  First ``is_new[k]`` gets whether step k's a, b and c
    of ``coefs`` differ bitwise from step k - 1's; step 0 is compared with
    ``last`` when ``have_last`` and is new otherwise.  ValueError is raised
    unless ``bands`` has a slot for step 0 and each later new step, else the
    last step's a, b and c go into ``last``.  At k = 0 and where
    ``is_new[k]`` step k builds its matrix from w and its a, b and c into the
    next slot; a repeated matrix has the pivots that C re-uses.  A zero
    pivot raises ZeroPivot with the step, and leaves u[k + 1] unspecified.
    norms[k] gets max|A x - rhs|, max|rhs| and max|x| (zeros without
    ``audit``).  Returns the first step whose x is not finite, that x stored
    as u[k + 1] without its ends pinned, or -1."""
    is_new[0] = not have_last or any(bool((x[0].view(np.int64) != y.view(np.int64)).any())
                                     for x, y in zip(coefs, last))
    is_new[1:] = False
    for x in coefs:
        bits = x.view(np.int64)
        if bits.strides[0]:  # not broadcast over the steps: element 0, else the row
            is_new[1:] |= bits[1:, 0] != bits[:-1, 0]
            tie = np.flatnonzero(~is_new[1:]) + 1
            is_new[tie] = (bits[tie] != bits[tie - 1]).any(axis=1)
    if 1 + np.count_nonzero(is_new[1:]) > len(bands):
        raise ValueError(f"advance needs more matrices than its {len(bands)} band slots")
    last[:] = [x[-1] for x in coefs]
    built = iter(bands)
    for k, (p, r) in enumerate(ends.tolist()):
        if k == 0 or is_new[k]:
            band = next(built)
            band[:] = _bands(w, mu, dt, *(x[k] for x in coefs))
        rhs = step_rhs(band, u[k], f[k], p, r)
        try:
            x = _solve_py(band, rhs)
        except ZeroPivot as exc:
            raise ZeroPivot(exc.row, step=k) from None
        u[k + 1] = x
        if not np.all(np.isfinite(x)):
            return k
        norms[k] = (residual_max_norm(band, rhs, x), np.max(np.abs(rhs)),
                    np.max(np.abs(x))) if audit else 0.0
        u[k + 1, 0], u[k + 1, -1] = p, r
    return -1


def _format_py(lead: bytes, xs, row) -> bytes:
    """For each node i: ``lead``, the piece xs[i], row[i] as '%.17g' and a newline."""
    return b"".join(lead + x + b"%.17g\n" for x in xs) % tuple(np.asarray(row, float).tolist())


def _level_rows(heads, leads, xs):
    """Both kernels' ``format_levels`` checks: a lead per head, then the
    function of (j0, rows) that returns rows contiguous, checked to be levels
    j0, j0 + 1, ... of the heads with a value per x piece; ValueError if not."""
    if len(leads) != len(heads):
        raise ValueError(f"format_levels got {len(heads)} heads and {len(leads)} leads")

    def rows_of(j0, rows):
        rows = np.ascontiguousarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(xs) or not 0 <= j0 <= len(heads) - len(rows):
            raise ValueError(f"format_levels got {rows.shape} values from level {j0} "
                             f"of {len(heads)} levels of {len(xs)} nodes")
        return rows
    return rows_of


def _format_levels_py(heads, leads, xs):
    """The function of (j0, rows, write) that writes levels j0, j0 + 1, ...:
    for each row, the level's head, then :func:`_format_py` of its lead, xs
    and the row."""
    rows_of = _level_rows(heads, leads, xs)

    def write_levels(j0, rows, write):
        for head, lead, row in zip(heads[j0:], leads[j0:], rows_of(j0, rows)):
            write(head + _format_py(lead, xs, row))
    return write_levels


class _Kernel(NamedTuple):
    """``advance`` (:func:`_advance_py`), raising ZeroPivot, or ValueError
    for too few band slots, and ``format_levels`` (:func:`_format_levels_py`),
    which takes the heads and leads of every level and the x pieces once and
    returns the function of (j0, rows, write) that passes those levels' text
    to ``write`` in blocks, each a bytes-like object valid only during the
    call."""

    name: str
    advance: Callable
    format_levels: Callable


_PYTHON_KERNEL = _Kernel("python", _advance_py, _format_levels_py)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_thomas.c")
# -ffp-contract=off: a - b*c must not become a fused multiply-add, or the
# compiled kernel stops being bitwise equal to the Python loops
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_BLOCK_BYTES = 256 * 1024  # text per compiled format_levels call, or one level
_EMPTY = ctypes.c_char * 0


def _address(x: np.ndarray) -> int:
    """The address of x's data: through a view of its buffer where it is
    writable, aligned and contiguous, 3 times cheaper than ``x.ctypes.data``."""
    return ctypes.addressof(_EMPTY.from_buffer(x)) if x.flags.carray else x.ctypes.data


def _c_kernel(lib: ctypes.CDLL) -> _Kernel:
    """Wrap ``thomas_advance`` and ``format_levels``."""
    c_advance, c_format = lib.thomas_advance, lib.format_levels
    c_advance.argtypes = [ctypes.c_long] * 4 + [ctypes.c_double] * 2 + [ctypes.c_void_p] * 5 \
        + [ctypes.c_long] * 8 + [ctypes.c_void_p] * 6 + [ctypes.c_long, ctypes.c_void_p]
    c_format.argtypes = [ctypes.c_long] * 2 + [ctypes.c_char_p, ctypes.c_void_p] * 2 \
        + [ctypes.c_void_p] * 3
    c_advance.restype = c_format.restype = ctypes.c_long

    def advance(w, mu, dt, coefs, is_new, f, ends, u, audit, bands, norms, last, have_last):
        steps, n = len(f), np.shape(w)[-1]
        w, ends = np.ascontiguousarray(w, dtype=float), np.ascontiguousarray(ends, dtype=float)
        a, b, c = coefs  # samples are read in place, through their strides
        try:  # outputs are written in place: writable and contiguous
            outs = [ctypes.addressof(_EMPTY.from_buffer(x))
                    for x in (u, bands, norms, is_new, last)]
        except TypeError:
            outs = None
        shapes = [x.shape for x in (w, a, b, c, f, ends, is_new, u, bands, norms, last)]
        if outs is None or steps < 1 or shapes != [
                (4, n), *[(steps, n - 2)] * 4, (steps, 2), (steps,), (steps + 1, n),
                (len(bands), 4, n), (steps, 3), (3, n - 2)] \
                or not a.dtype == b.dtype == c.dtype == f.dtype == u.dtype == bands.dtype \
                == norms.dtype == last.dtype == float or is_new.dtype != bool \
                or not (a.flags.aligned and b.flags.aligned and c.flags.aligned
                        and f.flags.aligned):
            raise ValueError(f"advance got shapes {shapes} or an output that is read-only "
                             "or not contiguous")
        scratch = np.empty(4 * n)  # rhs, c, piv and the right side of the step before
        bad = c_advance(steps, n, bool(audit), len(bands), mu, dt, _address(w), _address(a),
                        _address(b), _address(c), _address(f), *a.strides, *b.strides,
                        *c.strides, *f.strides, _address(ends), *outs, bool(have_last),
                        ctypes.addressof(_EMPTY.from_buffer(scratch)))
        if bad == -2:
            raise ValueError(f"advance needs more matrices than its {len(bands)} band slots")
        if bad < -2:
            raise ZeroPivot((-3 - bad) % n, step=(-3 - bad) // n)
        return bad

    def format_levels(heads, leads, xs):
        n, rows_of = len(xs), _level_rows(heads, leads, xs)
        texts = [t for pair in zip(heads, leads) for t in pair]
        at = np.cumsum([0, *map(len, texts)], dtype=ctypes.c_long)
        off = np.cumsum([0, *map(len, xs)], dtype=ctypes.c_long)
        # C copies a piece of up to 32 bytes as 32 bytes
        text, pieces = b"".join(texts) + bytes(32), b"".join(xs) + bytes(32)
        # a level is at most the longest head and, per node, the longest lead,
        # its piece and 24 bytes
        most = max(map(len, heads), default=0) + n * (max(map(len, leads), default=0) + 24) \
            + int(off[-1])
        per = max(1, _BLOCK_BYTES // most)  # levels per call
        out, done = np.empty(per * most + 64, np.uint8), np.zeros(1, ctypes.c_long)
        view = memoryview(out)  # written from in place: each block is gone after its write

        def write_levels(j0, rows, write):
            rows = rows_of(j0, rows)  # checked before every foreign call
            at_ptr, off_ptr, u_ptr, out_ptr, done_ptr = (x.ctypes.data
                                                         for x in (at, off, rows, out, done))
            l0 = 0
            while l0 < len(rows):
                count = min(per, len(rows) - l0)
                size = c_format(count, n, text, at_ptr + 16 * (j0 + l0), pieces, off_ptr,
                                u_ptr + 8 * n * l0, out_ptr, done_ptr)
                if size:
                    write(view[:size])
                l0 += int(done[0])
                if done[0] < count:  # a value out of the compiled range: this level in Python
                    write(heads[j0 + l0] + _format_py(leads[j0 + l0], xs, rows[l0]))
                    l0 += 1

        return write_levels

    return _Kernel("c", advance, format_levels)


def _load_kernel(directory: str) -> _Kernel:
    """The compiled kernel, built into ``directory`` on first use.

    The library's name carries a CRC of the source and flags, so an edited
    source is rebuilt; after a build the other ``_thomas-*.so`` files in
    ``directory``, builds of earlier sources, are removed where that works.
    Falls back to the Python loops when it cannot be built or loaded (no
    ``cc``, a compile error, an unwritable directory).
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
            for stale in glob.glob(os.path.join(glob.escape(directory), "_thomas-*.so")):
                if stale != path:
                    with contextlib.suppress(OSError):
                        os.remove(stale)
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


def residual_max_norm(bands: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> float:
    """Max-norm of A x - rhs, where A's sub, diag and sup are rows 0-2 of ``bands``."""
    return float(np.max(np.abs(_tridiagonal_apply(bands, x) - rhs)))


def _fail(strict: bool, exc_type, message: str) -> None:
    if strict:
        raise exc_type(message)
    warnings.warn(message, CheckWarning, stacklevel=3)


def march(spec: ProblemSpec, mesh: SpatialMesh, grid: TimeGrid,
          checks: CheckPolicy = CheckPolicy(), *,
          sink: Callable[[int, np.ndarray], object] | None = None) -> DiscreteSolution | None:
    """Advance the fully discrete scheme from t = 0 to t = T.

    values[0] is q sampled on the mesh; each later level solves one
    Crank-Nicolson system.  Boundary entries are assigned from p and r, not
    solved.  a, b, c and f are sampled a chunk of steps at a time, and each
    chunk is one kernel ``advance`` call, bitwise equal to building and
    solving every step afresh.  A step whose a, b and c equal the previous
    step's bitwise reuses its matrix and its M-matrix verdict; the kernel
    finds those steps, reading the samples in place.  The audits
    follow the call in step order, each new matrix's M-matrix check before
    its steps' residuals; a zero pivot or a non-finite value raises after
    the audits of the steps before it.  The stability audit runs once, on
    each level's max|U| from the kernel's audit norms.

    Without ``sink`` the march returns the :class:`DiscreteSolution`.  With
    it the march holds only one chunk of levels: after a chunk's audits pass
    it calls ``sink(j0, rows)`` with levels j0 .. j0 + len(rows) - 1 (level 0
    comes with the first chunk), as a read-only view that is valid only
    during the call, and returns None.  A chunk that fails is not passed on.
    """
    n = mesh.n
    where = f"(N={n}, M={grid.m})"
    q0 = _evaluate(spec.q, mesh.points)
    if not np.all(np.isfinite(q0)):
        raise NonFiniteValue("initial data contains non-finite values")
    if checks.audit:  # for the stability audit: max|p|, max|r| and max|U| per level
        ends_max = np.abs(_ends(spec, grid.times[:1]))[0]
        level_max = np.empty(grid.m + 1)
        level_max[0] = max(q0.max(), -q0.min())

    chunk = min(grid.m, max(1, _CHUNK_BYTES // (8 * (n - 1))))
    # the levels themselves, or with a sink one chunk of them, row 0 holding
    # the last level of the chunk before
    values = np.empty((grid.m + 1 if sink is None else chunk + 1, n + 1))
    values[0] = q0
    weights = stencil_weights(spec, mesh)
    # chunk arrays are kept for the march, as freeing them per chunk costs page
    # faults; ``last`` holds the a, b and c of the step before a chunk
    sampled = row_scale = None
    norms, slots, new = np.empty((chunk, 3)), np.empty((0, 4, n + 1)), np.empty(chunk, bool)
    last = np.empty((3, n - 1))
    for j0 in range(0, grid.m, chunk):
        t_next = grid.times[j0 + 1:j0 + 1 + chunk]
        t_mid = t_next - 0.5 * grid.dt
        # one call per callable and branch on the (steps x rows) grid
        *coefs, f = sampled = sample_coefficients(spec, mesh, t_mid[:, None], sampled)
        ends = _ends(spec, t_next)
        # a slot per new matrix: one when a, b and c ignore t, else one per step
        need = len(f) if any(x.strides[0] for x in coefs) else 1
        slots = slots if len(slots) >= need else np.empty((need, 4, n + 1))
        u = values[j0:j0 + len(f) + 1] if sink is None else values[:len(f) + 1]
        try:
            bad, pivot = _KERNEL.advance(weights, spec.params.mu, grid.dt, coefs,
                                         new[:len(f)], f, ends, u, checks.audit, slots,
                                         norms[:len(f)], last, j0 > 0), None
        except ZeroPivot as exc:
            bad, pivot = exc.step, exc
        # segments: from the chunk's first step and each later step the
        # kernel found new, whose matrix it built into the next slot
        starts = [0, *(np.flatnonzero(new[1:len(f)]) + 1).tolist()]
        # audits in step order, up to a failed step: each new matrix, then
        # the residuals of the steps that solve it
        for slot, (k, e) in enumerate(zip(starts, starts[1:] + [len(f)])):
            if not checks.audit or k > bad >= 0:
                break
            if new[k]:
                sub, diag, sup = slots[slot, :3]
                row_scale = float(np.max(np.abs(sub) + np.abs(diag) + np.abs(sup)))
                report = m_matrix_check(slots[slot])
                if not report.passed:
                    _fail(checks.strict, MMatrixViolation,
                          f"M-matrix check failed at step j={j0 + k} {where}: "
                          f"{report.violations[:3]}")
            res, rhs_max, x_max = norms[k:e if bad < 0 else min(e, bad)].T
            # rhs-anchored tolerance, plus a matrix-scale term for degenerate
            # (eps ~ 1) instances whose matrix entries dwarf the rhs
            tol = RESIDUAL_RTOL * (1.0 + rhs_max) + _MATRIX_RTOL * row_scale * (1.0 + x_max)
            for i in np.flatnonzero(res > tol).tolist():
                _fail(checks.strict, ResidualViolation,
                      f"solve residual {res[i]:.3e} exceeds {tol[i]:.3e} "
                      f"at step j={j0 + k + i} {where}")
        if pivot is not None:
            raise ZeroPivot(pivot.row, f"zero pivot at row {pivot.row}, step j={j0 + bad} "
                            f"{where}") from pivot
        if bad >= 0:
            raise NonFiniteValue(f"non-finite value at step j={j0 + bad} {where}")
        if checks.audit:
            ends_max = np.maximum(ends_max, np.abs(ends).max(0))
            # step k's max|x| is level k + 1's max|U|: rows 0 and N solve to p and r
            level_max[j0 + 1:j0 + len(u)] = norms[:len(f), 2]
        if sink is not None:
            first = 0 if j0 == 0 else 1  # level 0 is finished with the first chunk
            done = u[first:].view()
            done.flags.writeable = False
            sink(j0 + first, done)
            values[0] = u[-1]
    if checks.audit and not (report := _audit_report(spec, ends_max, q0,
                                                     abs(float(level_max.max())))).passed:
        # step j produces level j + 1
        _fail(checks.strict, StabilityViolation,
              f"max|U| {report.max_abs:.6g} exceeds stability bound {report.bound:.6g}, "
              f"first at step j={int(np.argmax(level_max[1:] > report.bound))} {where}")
    return None if sink is not None else DiscreteSolution(mesh=mesh, grid=grid, values=values)


def _ends(spec: ProblemSpec, times: np.ndarray) -> np.ndarray:
    """(p(t), r(t)) for each time, one scalar call each."""
    return np.array([(float(spec.p(t)), float(spec.r(t))) for t in times.tolist()])


@dataclass(frozen=True)
class AuditReport:
    """max|U| of a march against the a priori bound data_sup + f_sup/beta +
    STABILITY_SLACK; ``margin`` is bound - max_abs."""

    max_abs: float
    data_sup: float
    f_sup: float
    beta: float
    bound: float
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


def _audit_report(spec: ProblemSpec, ends_max: np.ndarray, q0: np.ndarray,
                  max_abs: float) -> AuditReport:
    """The stability report from max|p| and max|r| over the times,
    ``ends_max``, the initial level ``q0`` and max|U|.  The only statement of
    the a priori bound."""
    p_max, r_max = ends_max
    data_sup = float(max(p_max, r_max, np.max(np.abs(q0))))
    xs_l, xs_r, ts = _sample_grids(spec)
    f_sup = max(0.0, *(float(np.max(np.abs(_sample(fn, xs, ts))))
                       for xs, fn in ((xs_l, spec.f.left), (xs_r, spec.f.right))))
    bound = data_sup + f_sup / spec.beta + STABILITY_SLACK
    return AuditReport(max_abs=max_abs, data_sup=data_sup, f_sup=f_sup,
                       beta=spec.beta, bound=bound, margin=bound - max_abs)
