"""Solver for two-parameter singularly perturbed parabolic problems with a
discontinuous convection coefficient and source term.

Crank-Nicolson in time on a uniform grid, upwind differences in space on a
Shishkin-Bakhvalov mesh, and a three-point transmission condition at the
interior discontinuity.  See README.md for usage.
"""

from .analysis import (ConvergenceReport, LevelRecord, TemporalOrderReport,
                       convergence_study, parse_report_csv, render_report_csv,
                       render_text_table, temporal_order_study)
from .discretization import m_matrix_check
from .errors import (CheckWarning, CompatibilityViolation, FloorViolation,
                     InvalidInput, LayerSolveError, LayersOverlap,
                     ManufacturedMismatch, MeshMismatch, MMatrixViolation,
                     NonFiniteValue, NonMonotone, ResidualViolation,
                     SignViolation, StabilityViolation, UnknownExample,
                     UnsupportedRegime, ZeroPivot)
from .mesh import (LayerParams, SpatialMesh, TimeGrid, bisect, build_mesh,
                   layer_params, spatial_mesh_for, transition_points,
                   uniform_mesh, uniform_time_grid)
from .problem import (PerturbationParams, PiecewiseField, ProblemSpec,
                      RegimeCase, RegimeConstants, ValidationReport,
                      derive_regime, validate)
from .registry import ManufacturedProblem, lookup, manufactured_sine
from .solver import KERNEL, CheckPolicy, DiscreteSolution, march

__version__ = "0.1.0"
