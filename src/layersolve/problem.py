"""Continuous problem class: piecewise data, hypothesis validation, regime classification.

The problem solved by this library is

    eps*u_xx + mu*a(x,t)*u_x - b(x,t)*u - c(x,t)*u_t = f(x,t)   on (0,1)x(0,T],

with Dirichlet data u(0,t) = p(t), u(1,t) = r(t), initial data u(x,0) = q(x),
and both a and f discontinuous across the interior point x = d.  The
convection coefficient changes sign there: a <= -alpha1 < 0 for x < d and
a >= alpha2 > 0 for x > d, which is what produces the interior layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (CompatibilityViolation, FloorViolation, InvalidInput,
                     SignViolation)

__all__ = [
    "CORNER_TOL",
    "PiecewiseField",
    "PerturbationParams",
    "ProblemSpec",
    "RegimeCase",
    "RegimeConstants",
    "CheckResult",
    "ValidationReport",
    "validate",
    "derive_regime",
]

# Corner compatibility is required at desk precision.
CORNER_TOL = 1e-12

# Points per axis of the grid on which the hypotheses, rho and sup|f| are sampled.
_SAMPLE_DENSITY = 101

SpaceTimeFn = Callable[..., "np.ndarray | float"]
TimeFn = Callable[[float], float]
SpaceFn = Callable[..., "np.ndarray | float"]


def _evaluate(fn: Callable, *args) -> np.ndarray:
    """fn(*args) as floats of the arguments' broadcast shape; a scalar is broadcast."""
    vals = np.asarray(fn(*args), dtype=float)
    shape = np.broadcast(*args).shape
    return vals if vals.shape == shape else np.broadcast_to(vals, shape)


def _sample(fn: SpaceTimeFn, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Evaluate fn on the tensor grid xs x ts."""
    return _evaluate(fn, xs[:, None], ts[None, :])


def _sample_grids(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x on [0,d] (left branch), x on [d,1] (right branch) and t on [0,T]."""
    return (np.linspace(0.0, spec.d, _SAMPLE_DENSITY),
            np.linspace(spec.d, 1.0, _SAMPLE_DENSITY),
            np.linspace(0.0, spec.t_final, _SAMPLE_DENSITY))


@dataclass(frozen=True)
class PiecewiseField:
    """Scalar field on [0,1] x [0,T] with a single interior discontinuity.

    ``left`` is defined for x in [0, d], ``right`` for x in [d, 1]; both
    one-sided values at x = d stay retrievable through the branch callables,
    which take arrays as :class:`ProblemSpec` states.
    """

    left: SpaceTimeFn
    right: SpaceTimeFn
    d: float

    def __post_init__(self):
        if not 0.0 < self.d < 1.0:
            raise ValueError(f"discontinuity abscissa d={self.d} must lie in (0,1)")


@dataclass(frozen=True)
class PerturbationParams:
    """Diffusion parameter eps and convection parameter mu, both in (0, 1]."""

    epsilon: float
    mu: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise InvalidInput(f"epsilon={self.epsilon} must be in (0, 1]")
        if not 0.0 < self.mu <= 1.0:
            raise InvalidInput(f"mu={self.mu} must be in (0, 1]")


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one boundary-value problem instance.

    The data callables are pure.  a and f (each branch), b and c take numpy
    arrays of x and t that broadcast together, and return an array of their
    shape or a scalar; p and r take a float t; q takes an array of x.

    The floors alpha1, alpha2, beta, eta are user-declared and cross-checked
    against samples by :func:`validate`; they are not inferred from samples
    because sampling can overestimate an infimum.
    """

    a: PiecewiseField
    f: PiecewiseField
    b: SpaceTimeFn
    c: SpaceTimeFn
    p: TimeFn
    r: TimeFn
    q: SpaceFn
    d: float
    t_final: float
    params: PerturbationParams
    alpha1: float
    alpha2: float
    beta: float
    eta: float

    def __post_init__(self):
        if self.t_final <= 0.0:
            raise ValueError("t_final must be positive")
        for name in ("alpha1", "alpha2", "beta", "eta"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.a.d != self.d or self.f.d != self.d:
            raise ValueError("a and f must share the problem's discontinuity point d")


class RegimeCase(enum.Enum):
    """Parameter regime: CASE_I iff alpha*mu^2 <= rho*epsilon."""

    CASE_I = "case-i"
    CASE_II = "case-ii"


@dataclass(frozen=True)
class RegimeConstants:
    """Derived constants controlling layer widths.

    rho is the sampled minimum of |b|/|a| over both branches, alpha the
    smaller of the two convection floors.
    """

    rho: float
    alpha: float
    case: RegimeCase

    def __post_init__(self):
        if self.rho <= 0.0 or self.alpha <= 0.0:
            raise ValueError("rho and alpha must be positive")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_x: float
    worst_t: float
    observed: float
    limit: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _worst(values: np.ndarray, xs: np.ndarray, ts: np.ndarray, pick_max: bool):
    flat = int(np.argmax(values) if pick_max else np.argmin(values))
    i, j = np.unravel_index(flat, values.shape)
    return float(values[i, j]), float(xs[i]), float(ts[j])


def validate(spec: ProblemSpec) -> ValidationReport:
    """Check the problem hypotheses on a tensor sample grid.

    Per axis the grid has ``_SAMPLE_DENSITY`` points: x in [0,d] and [d,1]
    (one grid per branch) and t in [0, T].  Checks: a <= -alpha1 on the left
    branch, a >= alpha2 on the right, b >= beta and c >= eta everywhere, and
    corner compatibility q(0) = p(0), q(1) = r(0) to ``CORNER_TOL``.

    Returns the report when every check passes.  Otherwise the first failed
    check raises its typed error (SignViolation, FloorViolation,
    CompatibilityViolation) with the full report attached as ``.report``.
    """
    xs_l, xs_r, ts = _sample_grids(spec)
    xs_all = np.concatenate([xs_l, xs_r])

    checks: list[CheckResult] = []
    errors: list[Exception] = []

    a_l = _sample(spec.a.left, xs_l, ts)
    obs, wx, wt = _worst(a_l, xs_l, ts, pick_max=True)
    ok = obs <= -spec.alpha1
    checks.append(CheckResult("a-left-sign", ok, wx, wt, obs, -spec.alpha1))
    if not ok:
        errors.append(SignViolation(
            f"a must satisfy a <= -alpha1 = {-spec.alpha1} on the left branch; "
            f"sampled a({wx:.6g},{wt:.6g}) = {obs:.6g}"))

    a_r = _sample(spec.a.right, xs_r, ts)
    obs, wx, wt = _worst(a_r, xs_r, ts, pick_max=False)
    ok = obs >= spec.alpha2
    checks.append(CheckResult("a-right-sign", ok, wx, wt, obs, spec.alpha2))
    if not ok:
        errors.append(SignViolation(
            f"a must satisfy a >= alpha2 = {spec.alpha2} on the right branch; "
            f"sampled a({wx:.6g},{wt:.6g}) = {obs:.6g}"))

    for name, fn, floor, err in (("b-floor", spec.b, spec.beta, FloorViolation),
                                 ("c-floor", spec.c, spec.eta, FloorViolation)):
        vals = _sample(fn, xs_all, ts)
        obs, wx, wt = _worst(vals, xs_all, ts, pick_max=False)
        ok = obs >= floor
        checks.append(CheckResult(name, ok, wx, wt, obs, floor))
        if not ok:
            errors.append(err(f"{name.split('-')[0]}({wx:.6g},{wt:.6g}) = {obs:.6g} "
                              f"is below its declared floor {floor}"))

    for name, corner_x, got, want in (
            ("corner-left", 0.0, float(spec.q(0.0)), float(spec.p(0.0))),
            ("corner-right", 1.0, float(spec.q(1.0)), float(spec.r(0.0)))):
        gap = abs(got - want)
        ok = gap <= CORNER_TOL
        checks.append(CheckResult(name, ok, corner_x, 0.0, gap, CORNER_TOL))
        if not ok:
            errors.append(CompatibilityViolation(
                f"{name}: |q({corner_x:g}) - boundary(0)| = {gap:.3e} exceeds {CORNER_TOL}"))

    report = ValidationReport(tuple(checks))
    if errors:
        err = errors[0]
        err.report = report
        raise err
    return report


def derive_regime(spec: ProblemSpec) -> RegimeConstants:
    """Compute rho = min |b|/|a| over the sample grid, alpha, and the case.

    The classification predicate sqrt(alpha)*mu <= sqrt(rho*eps) is evaluated
    in its squared form alpha*mu^2 <= rho*eps, which is exact on the boundary
    and scale-consistent (multiplying eps by 4 and mu by 2 changes nothing).
    """
    xs_l, xs_r, ts = _sample_grids(spec)
    ratios = []
    for xs, a_fn in ((xs_l, spec.a.left), (xs_r, spec.a.right)):
        a_vals = np.abs(_sample(a_fn, xs, ts))
        b_vals = np.abs(_sample(spec.b, xs, ts))
        ratios.append(np.min(b_vals / a_vals))
    rho = float(min(ratios))
    alpha = float(min(spec.alpha1, spec.alpha2))

    eps, mu = spec.params.epsilon, spec.params.mu
    case = RegimeCase.CASE_I if alpha * mu * mu <= rho * eps else RegimeCase.CASE_II
    return RegimeConstants(rho=rho, alpha=alpha, case=case)
