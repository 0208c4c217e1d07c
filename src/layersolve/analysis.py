"""Double-mesh error estimation and convergence-order studies.

The double-mesh difference for one refinement level is

    E = max_j max_i |U^{2N,2M}(x_{2i}, t_{2j}) - U^{N,M}(x_i, t_j)|,

well-defined because refinement is by bisection, so the coarse points are a
bit-exact subset of the fine ones.  Rebuilding a 2N mesh from the transition
formulas would move tau by the factor ln(2N)/ln(N) and leave no shared points
to compare; this is the one place the construction deliberately deviates from
re-running the mesh recipe, and it may account for small differences against
published experiment tables.  Orders follow R = log2(E^{N,M} / E^{2N,2M}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInput, LayersOverlap, ManufacturedMismatch,
                     MeshMismatch)
from .mesh import (SpatialMesh, ThetaVariant, bisect, spatial_mesh_for,
                   uniform_mesh, uniform_time_grid)
from .problem import (ProblemSpec, RegimeConstants, RegimeCase, derive_regime,
                      validate)
from .registry import ManufacturedProblem
from .solver import CheckPolicy, DiscreteSolution, march

__all__ = [
    "LevelRecord",
    "ConvergenceReport",
    "orders_from_errors",
    "convergence_study",
    "TemporalLevel",
    "TemporalOrderReport",
    "temporal_order_study",
    "render_report_csv",
    "parse_report_csv",
    "render_text_table",
    "render_temporal_csv",
    "report_filename",
]

ORDER_SENTINEL = "\u2014"  # em dash, rendered where R is undefined
MANUFACTURED_RESIDUAL_TOL = 1e-8


def _check_nested(coarse: DiscreteSolution, fine: DiscreteSolution) -> None:
    if fine.mesh.n != 2 * coarse.mesh.n:
        raise MeshMismatch(
            f"fine mesh has N={fine.mesh.n}, expected {2 * coarse.mesh.n}")
    if not np.array_equal(fine.mesh.points[::2], coarse.mesh.points):
        raise MeshMismatch("fine mesh does not contain the coarse points; "
                           "refine with bisect() to keep meshes nested")
    if fine.grid.m != 2 * coarse.grid.m:
        raise MeshMismatch(
            f"fine grid has M={fine.grid.m}, expected {2 * coarse.grid.m}")
    if fine.grid.t_final != coarse.grid.t_final:
        raise MeshMismatch("time horizons differ")


def double_mesh_error(coarse: DiscreteSolution, fine: DiscreteSolution) -> float:
    """E of two whole solutions, raising MeshMismatch unless they are nested.

    :func:`convergence_study` folds E as it marches and does not call this.
    It is not exported: tests import it from here as the study's reference,
    and ``perfbench/tracing.py`` wraps it here by name.
    """
    _check_nested(coarse, fine)
    return float(np.max(np.abs(fine.values[::2, ::2] - coarse.values)))


def orders_from_errors(errors: list[float]) -> list[float | None]:
    """R_k = log2(E_k / E_{k+1}); None for the last entry or degenerate pairs."""
    orders: list[float | None] = []
    for k in range(len(errors)):
        if k + 1 < len(errors) and errors[k] > 0.0 and errors[k + 1] > 0.0:
            orders.append(math.log2(errors[k] / errors[k + 1]))
        else:
            orders.append(None)
    return orders


@dataclass(frozen=True)
class LevelRecord:
    n: int
    m: int
    e: float
    r: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level double-mesh errors and orders for one (epsilon, mu) pair."""

    levels: tuple[LevelRecord, ...]
    regime: RegimeConstants
    epsilon: float
    mu: float


def convergence_study(spec: ProblemSpec, base_n: int, base_m: int, levels: int,
                      variant: ThetaVariant = ThetaVariant.SECTION4,
                      checks: CheckPolicy = CheckPolicy()) -> ConvergenceReport:
    """Run the nested-refinement study and report E and R per level.

    Produces ``levels`` report rows at (N, M) = (base_n*2^l, base_m*2^l); one
    extra march on the next bisection supplies the final row's double-mesh
    error, mirroring published tables where every row has E and all but the
    last have R.  Level l+1 always uses the bisection of level l's mesh.

    The levels march one after another, coarse to fine, and each streams its
    finished time levels into a sink (see :func:`march`).  The sink folds
    fine level 2j against the previous march's kept level j, so E is bitwise
    :func:`double_mesh_error`, and keeps its own levels for the next march.
    At most two marches' values are held at once, the finest never.
    """
    if levels < 2:
        raise InvalidInput(f"levels={levels}: a study needs at least 2 levels")
    validate(spec)
    regime = derive_regime(spec)

    mesh = spatial_mesh_for(regime, spec.params, base_n, spec.d, variant)
    meshes: list[SpatialMesh] = [mesh]
    for _ in range(levels):
        meshes.append(bisect(meshes[-1]))
    errors: list[float] = []
    coarse = None
    for lvl, msh in enumerate(meshes):
        grid = uniform_time_grid(spec.t_final, base_m << lvl)
        kept = np.empty((grid.m + 1, msh.n + 1)) if lvl < levels else None
        fold = _DoubleMeshFold(coarse, kept)
        march(spec, msh, grid, checks, sink=fold)
        if coarse is not None:
            errors.append(float(fold.max))
        coarse = kept

    records = [LevelRecord(n=base_n << lvl, m=base_m << lvl, e=errors[lvl], r=r)
               for lvl, r in enumerate(orders_from_errors(errors))]
    return ConvergenceReport(levels=tuple(records), regime=regime,
                             epsilon=spec.params.epsilon, mu=spec.params.mu)


class _DoubleMeshFold:
    """A march sink: copies each block of levels into ``kept`` (unless None)
    and folds |fine[2j, 2i] - coarse[j, i]| over the block's even levels into
    ``max``, a NaN propagating as in ``np.max``."""

    def __init__(self, coarse: np.ndarray | None, kept: np.ndarray | None):
        self.coarse, self.kept, self.max = coarse, kept, np.float64(0.0)

    def __call__(self, j0: int, rows: np.ndarray) -> None:
        if self.kept is not None:
            self.kept[j0:j0 + len(rows)] = rows
        fine = rows[j0 & 1::2, ::2]  # the even levels, at the coarse nodes
        if self.coarse is not None and len(fine):
            j = (j0 + 1) // 2
            self.max = np.maximum(self.max, np.abs(fine - self.coarse[j:j + len(fine)]).max())


@dataclass(frozen=True)
class TemporalLevel:
    m: int
    error: float
    ratio: float | None
    order: float | None


@dataclass(frozen=True)
class TemporalOrderReport:
    """Max-node errors against the exact solution for a fixed N and varying M."""

    n: int
    levels: tuple[TemporalLevel, ...]


def _manufactured_residual(man: ManufacturedProblem) -> float:
    spec = man.spec
    eps, mu = spec.params.epsilon, spec.params.mu
    ts = np.linspace(0.0, spec.t_final, 33)
    worst = 0.0
    for lo, hi, a_fn, f_fn in ((0.0, spec.d, spec.a.left, spec.f.left),
                               (spec.d, 1.0, spec.a.right, spec.f.right)):
        xs = np.linspace(lo, hi, 33)[:, None]
        tt = ts[None, :]
        res = (eps * man.exact_xx(xs, tt) + mu * a_fn(xs, tt) * man.exact_x(xs, tt)
               - spec.b(xs, tt) * man.exact(xs, tt)
               - spec.c(xs, tt) * man.exact_t(xs, tt) - f_fn(xs, tt))
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def temporal_order_study(man: ManufacturedProblem, n_fixed: int,
                         m_list: tuple[int, ...] = (4, 8, 16, 32),
                         checks: CheckPolicy = CheckPolicy()) -> TemporalOrderReport:
    """Errors against the manufactured exact solution for each M in m_list.

    The manufactured construction is sanity-checked first: the exact solution
    must satisfy its own PDE to MANUFACTURED_RESIDUAL_TOL at samples, else
    ManufacturedMismatch.  When the problem is outside the perturbed regime and
    the transition widths would overlap (the intended eps = mu = 1 usage),
    the mesh falls back to a uniform one.
    """
    resid = _manufactured_residual(man)
    if resid > MANUFACTURED_RESIDUAL_TOL:
        raise ManufacturedMismatch(
            f"manufactured solution residual {resid:.3e} exceeds "
            f"{MANUFACTURED_RESIDUAL_TOL}; forcing and derivatives disagree")
    spec = man.spec
    try:
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, n_fixed, spec.d)
    except LayersOverlap:
        mesh = uniform_mesh(n_fixed, spec.d)

    ms = sorted(m_list)
    errors = []
    for m in ms:
        sol = march(spec, mesh, uniform_time_grid(spec.t_final, m), checks)
        exact = man.exact(mesh.points[None, :], sol.grid.times[:, None])
        errors.append(float(np.max(np.abs(sol.values - exact))))

    records = []
    for k, (m, order) in enumerate(zip(ms, orders_from_errors(errors))):
        ratio = None if order is None else errors[k] / errors[k + 1]
        records.append(TemporalLevel(m=m, error=errors[k], ratio=ratio, order=order))
    return TemporalOrderReport(n=n_fixed, levels=tuple(records))


# -- serialization -------------------------------------------------------------

def report_filename(epsilon: float, mu: float) -> str:
    return f"report_eps{epsilon:g}_mu{mu:g}.csv"


def render_report_csv(report: ConvergenceReport) -> str:
    """Full-precision CSV; study metadata rides in '#' comment lines."""
    lines = [
        f"# epsilon={report.epsilon!r}",
        f"# mu={report.mu!r}",
        f"# rho={report.regime.rho!r}",
        f"# alpha={report.regime.alpha!r}",
        f"# case={report.regime.case.value}",
        "N,M,E,R",
    ]
    for rec in report.levels:
        r_txt = "" if rec.r is None else repr(rec.r)
        lines.append(f"{rec.n},{rec.m},{rec.e!r},{r_txt}")
    return "\n".join(lines) + "\n"


def parse_report_csv(text: str) -> ConvergenceReport:
    """Read back what :func:`render_report_csv` wrote (lossless round-trip)."""
    meta: dict[str, str] = {}
    records: list[LevelRecord] = []
    header_seen = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != "N,M,E,R":
                raise ValueError(f"unexpected header {line!r}")
            header_seen = True
            continue
        n_s, m_s, e_s, r_s = line.split(",")
        records.append(LevelRecord(n=int(n_s), m=int(m_s), e=float(e_s),
                                   r=float(r_s) if r_s else None))
    for key in ("epsilon", "mu", "rho", "alpha", "case"):
        if key not in meta:
            raise ValueError(f"report lacks its '# {key}=' line")
    regime = RegimeConstants(rho=float(meta["rho"]), alpha=float(meta["alpha"]),
                             case=RegimeCase(meta["case"]))
    return ConvergenceReport(levels=tuple(records), regime=regime,
                             epsilon=float(meta["epsilon"]), mu=float(meta["mu"]))


def render_text_table(reports: list[ConvergenceReport]) -> str:
    """Text table in the published layout: one E row and one R row per mu.

    E is shown with 6 significant digits and R with 4 decimals; an undefined
    order renders as the em-dash sentinel.
    """
    if not reports:
        raise ValueError("no reports to render")
    ns = [rec.n for rec in reports[0].levels]
    for rep in reports:
        if [rec.n for rec in rep.levels] != ns:
            raise ValueError("all reports in one table must share the N ladder")
    width = 12
    head = "mu".ljust(10) + " " + "".join(f"N={n}".rjust(width) for n in ns)
    lines = [f"epsilon={reports[0].epsilon:g}", head]
    for rep in reports:
        e_cells = "".join(f"{rec.e:.6g}".rjust(width) for rec in rep.levels)
        r_cells = "".join(
            (ORDER_SENTINEL if rec.r is None else f"{rec.r:.4f}").rjust(width)
            for rec in rep.levels)
        lines.append(f"{rep.mu:<10g} {e_cells}")
        lines.append(" " * 10 + " " + r_cells)
    return "\n".join(lines) + "\n"


def render_temporal_csv(report: TemporalOrderReport) -> str:
    lines = [f"# N={report.n}", "M,error,ratio,order"]
    for rec in report.levels:
        ratio = "" if rec.ratio is None else repr(rec.ratio)
        order = "" if rec.order is None else repr(rec.order)
        lines.append(f"{rec.m},{rec.error!r},{ratio},{order}")
    return "\n".join(lines) + "\n"
