"""Shishkin-Bakhvalov spatial mesh and uniform time grid.

The unit interval is split into six segments,

    [0, tau1] [tau1, d-tau2] [d-tau2, d] [d, d+tau3] [d+tau3, 1-tau4] [1-tau4, 1],

with Shishkin-style transition widths tau = 4*ln(N)/theta and Bakhvalov-style
logarithmic grading inside the four layer segments (N/8 intervals each); the
two outer segments are uniform with N/4 intervals each.  Grading comes from
inverting the layer envelope exp(-theta*x) linearly, e.g. on [0, tau1]

    x_i = -(8/theta1) * log(1 + (8i/N) * (1/sqrt(N) - 1)),   0 <= i <= N/8.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, LayersOverlap, NonMonotone, UnsupportedRegime
from .problem import PerturbationParams, RegimeCase, RegimeConstants

__all__ = [
    "ThetaVariant",
    "LayerParams",
    "SpatialMesh",
    "TimeGrid",
    "SEGMENT_LABELS",
    "layer_params",
    "transition_points",
    "build_mesh",
    "uniform_mesh",
    "spatial_mesh_for",
    "bisect",
    "uniform_time_grid",
]

SEGMENT_LABELS = ("L1", "U1", "L2", "L3", "U2", "L4")


class ThetaVariant(enum.Enum):
    """Which layer decay rates drive the transition points.

    SECTION4 (default): theta1 = theta2 = sqrt(rho*alpha)/(2*sqrt(eps)); the
    symmetric values under which convergence is proved, and the wider (safer)
    boundary-layer width.
    SECTION2: theta1 = sqrt(rho*alpha)/sqrt(eps), theta2 as above; the
    asymmetric decay rates of the a priori layer bounds.

    Both are case-(i) rates: case (ii), sqrt(alpha)*mu > sqrt(rho*eps), is
    unsupported whatever the variant.
    """

    SECTION4 = "section4"
    SECTION2 = "section2"


@dataclass(frozen=True)
class LayerParams:
    """Boundary-layer (theta1) and interior-layer (theta2) decay rates."""

    theta1: float
    theta2: float

    def __post_init__(self):
        if self.theta1 <= 0.0 or self.theta2 <= 0.0:
            raise ValueError("layer decay rates must be positive")


def layer_params(regime: RegimeConstants, params: PerturbationParams,
                 variant: ThetaVariant = ThetaVariant.SECTION4) -> LayerParams:
    """Layer decay rates for the selected variant.

    Raises UnsupportedRegime when the regime is CASE_II, sqrt(alpha)*mu >
    sqrt(rho*eps): the scheme supports case (i) only, and no variant
    overrides that.
    """
    if regime.case is RegimeCase.CASE_II:
        raise UnsupportedRegime(
            "regime is case (ii) (sqrt(alpha)*mu > sqrt(rho*eps)); the scheme "
            "supports case (i) only")
    base = math.sqrt(regime.rho * regime.alpha) / (2.0 * math.sqrt(params.epsilon))
    if variant is ThetaVariant.SECTION2:
        return LayerParams(theta1=2.0 * base, theta2=base)
    return LayerParams(theta1=base, theta2=base)


def _check_n(n: int) -> None:
    if n < 16 or n % 8 != 0:
        raise InvalidInput(f"N={n} must be >= 16 and divisible by 8")


def transition_points(layer: LayerParams, n: int, d: float
                      ) -> tuple[float, float, float, float]:
    """Transition widths tau1 = tau4 = 4*ln(N)/theta1, tau2 = tau3 = 4*ln(N)/theta2.

    Raises LayersOverlap when tau1 + tau2 >= d or tau3 + tau4 >= 1 - d, which
    signals that eps is too large for this N to resolve the layers.
    """
    _check_n(n)
    ln_n = math.log(n)
    tau1 = 4.0 * ln_n / layer.theta1
    tau2 = 4.0 * ln_n / layer.theta2
    tau3 = tau2
    tau4 = tau1
    if tau1 + tau2 >= d or tau3 + tau4 >= 1.0 - d:
        raise LayersOverlap(
            f"transition widths overlap: tau1+tau2={tau1 + tau2:.6g} vs d={d:.6g}, "
            f"tau3+tau4={tau3 + tau4:.6g} vs 1-d={1.0 - d:.6g} (N={n} too small "
            f"for these layer widths)")
    return (tau1, tau2, tau3, tau4)


@dataclass(frozen=True, eq=False)
class SpatialMesh:
    """Graded mesh of N+1 points on [0,1] with the discontinuity at index N/2.

    ``h[i] = points[i] - points[i-1]`` for i = 1..N; ``h[0]`` is NaN so an
    accidental use is loud.  Instances are immutable (arrays are read-only)
    and safe for concurrent reads.
    """

    n: int
    points: np.ndarray
    tau: tuple[float, float, float, float]
    layer: LayerParams
    h: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.points.shape != (self.n + 1,):
            raise ValueError("points must have N+1 entries")
        self.points.setflags(write=False)
        h = np.empty(self.n + 1)
        h[0] = np.nan
        h[1:] = np.diff(self.points)
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    def segment_label(self, i: int) -> str:
        """Name of the segment point i belongs to; junctions go to the left segment."""
        n = self.n
        bounds = (n // 8, 3 * n // 8, n // 2, 5 * n // 8, 7 * n // 8, n)
        for label, hi in zip(SEGMENT_LABELS, bounds):
            if i <= hi:
                return label
        raise IndexError(i)


def build_mesh(layer: LayerParams, tau: tuple[float, float, float, float],
               n: int, d: float) -> SpatialMesh:
    """Construct the six-segment mesh from the piecewise closed forms.

    The five junction points (i = N/8, 3N/8, N/2, 5N/8, 7N/8) and the two
    endpoints are assigned once from the closed-form landmarks (tau1, d-tau2,
    d, d+tau3, 1-tau4) instead of from both adjacent branch formulas, so
    shared indices cannot disagree by an ulp.
    """
    _check_n(n)
    tau1, tau2, tau3, tau4 = tau
    th1, th2 = layer.theta1, layer.theta2
    n8, n38, n2, n58, n78 = n // 8, 3 * n // 8, n // 2, 5 * n // 8, 7 * n // 8
    rt = math.sqrt(n)

    x = np.empty(n + 1)
    x[0] = 0.0
    x[n8] = tau1
    x[n38] = d - tau2
    x[n2] = d
    x[n58] = d + tau3
    x[n78] = 1.0 - tau4
    x[n] = 1.0

    i = np.arange(1, n8)
    # argument 1 + (8i/N)(1/sqrt(N) - 1) lies in (1/sqrt(N), 1); log1p keeps accuracy
    x[1:n8] = -(8.0 / th1) * np.log1p((8.0 * i / n) * (1.0 / rt - 1.0))

    i = np.arange(n8 + 1, n38)
    x[n8 + 1:n38] = tau1 + 4.0 * (d - tau1 - tau2) * (i / n - 0.125)

    i = np.arange(n38 + 1, n2)
    x[n38 + 1:n2] = d + (8.0 / th2) * np.log((8.0 * i / n) * (1.0 - 1.0 / rt) + 4.0 / rt - 3.0)

    i = np.arange(n2 + 1, n58)
    x[n2 + 1:n58] = d - (8.0 / th2) * np.log((8.0 * i / n) * (1.0 / rt - 1.0) + 5.0 - 4.0 / rt)

    i = np.arange(n58 + 1, n78)
    x[n58 + 1:n78] = d + tau3 + 4.0 * (1.0 - d - tau3 - tau4) * (i / n - 0.625)

    i = np.arange(n78 + 1, n)
    x[n78 + 1:n] = 1.0 + (8.0 / th1) * np.log((8.0 * i / n) * (1.0 - 1.0 / rt) + 8.0 / rt - 7.0)

    if not np.all(np.diff(x) > 0.0):
        bad = int(np.argmin(np.diff(x)))
        raise NonMonotone(
            f"mesh points are not strictly increasing near i={bad} "
            f"(h={x[bad + 1] - x[bad]:.3e}); theta/tau combination is invalid")
    return SpatialMesh(n=n, points=x, tau=(tau1, tau2, tau3, tau4), layer=layer)


def uniform_mesh(n: int, d: float = 0.5) -> SpatialMesh:
    """Uniform fallback mesh for layer-free (degenerate) problem instances.

    Used when the transition formulas would overlap, e.g. eps = mu = 1 in
    manufactured-solution studies.  The tau tuple is derived from the lattice
    so all landmark identities still hold; ``layer`` is LayerParams(1.0, 1.0).
    """
    _check_n(n)
    x = np.arange(n + 1) / n
    if abs(x[n // 2] - d) > 1e-12:
        raise ValueError(f"uniform mesh cannot place d={d} at index N/2 for N={n}")
    tau = (float(x[n // 8]), float(d - x[3 * n // 8]),
           float(x[5 * n // 8] - d), float(1.0 - x[7 * n // 8]))
    return SpatialMesh(n=n, points=x, tau=tau, layer=LayerParams(1.0, 1.0))


def spatial_mesh_for(regime: RegimeConstants, params: PerturbationParams, n: int,
                     d: float, variant: ThetaVariant = ThetaVariant.SECTION4
                     ) -> SpatialMesh:
    """Layer params -> transition points -> mesh, in one call."""
    layer = layer_params(regime, params, variant)
    tau = transition_points(layer, n, d)
    return build_mesh(layer, tau, n, d)


def bisect(mesh: SpatialMesh) -> SpatialMesh:
    """Nested refinement: keep every point, insert interval midpoints.

    The returned mesh has 2N intervals and satisfies
    ``bisect(m).points[2i] == m.points[i]`` bit-exactly, which is what makes
    the double-mesh difference well-defined.  Rebuilding from the closed
    forms with 2N would instead shift tau by ln(2N)/ln(N) and break nesting.
    """
    old = mesh.points
    fine = np.empty(2 * mesh.n + 1)
    fine[0::2] = old
    fine[1::2] = 0.5 * (old[:-1] + old[1:])
    return SpatialMesh(n=2 * mesh.n, points=fine, tau=mesh.tau, layer=mesh.layer)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform time grid t_j = j*dt, j = 0..M, with dt = T/M."""

    m: int
    dt: float
    t_final: float
    times: np.ndarray

    def __post_init__(self):
        self.times.setflags(write=False)


def uniform_time_grid(t_final: float, m: int) -> TimeGrid:
    if m < 1:
        raise InvalidInput(f"M={m} time steps must be at least 1")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    dt = t_final / m
    times = np.arange(m + 1) * dt
    return TimeGrid(m=m, dt=dt, t_final=t_final, times=times)
