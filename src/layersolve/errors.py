"""Exception types raised across the library.

All library errors derive from :class:`LayerSolveError` so callers (and the
CLI) can catch everything domain-specific with one clause.
"""


class LayerSolveError(Exception):
    """Base class for all layersolve errors."""


class InvalidInput(LayerSolveError, ValueError):
    """An argument outside its documented range: eps, mu, N, M, levels, a key."""


# -- problem hypotheses -------------------------------------------------------

class SignViolation(LayerSolveError):
    """Convection coefficient has the wrong sign on a branch."""


class FloorViolation(LayerSolveError):
    """Reaction or time coefficient drops below its declared floor."""


class CompatibilityViolation(LayerSolveError):
    """Initial and boundary data disagree at a corner of the domain."""


# -- mesh construction --------------------------------------------------------

class UnsupportedRegime(LayerSolveError):
    """Layer parameters requested in case (ii), sqrt(alpha)*mu > sqrt(rho*eps);
    the scheme supports case (i) only."""


class LayersOverlap(LayerSolveError):
    """Transition widths exceed the available room; N too small for this epsilon."""


class NonMonotone(LayerSolveError):
    """Mesh construction produced a non-increasing point sequence."""


# -- linear algebra / time marching -------------------------------------------

class ZeroPivot(LayerSolveError):
    """Tridiagonal elimination hit a vanishing pivot (at ``step`` of a march chunk)."""

    def __init__(self, row: int, message: str = "", step: int | None = None):
        self.row, self.step = row, step
        super().__init__(message or f"zero pivot at row {row}")


class MMatrixViolation(LayerSolveError):
    """Assembled system failed the M-matrix structure check under strict policy."""


class ResidualViolation(LayerSolveError):
    """Linear solve residual exceeded tolerance under strict policy."""


class StabilityViolation(LayerSolveError):
    """Running solution exceeded the a priori bound under strict policy."""


class NonFiniteValue(LayerSolveError):
    """A solve produced NaN or infinity."""


# -- analysis -----------------------------------------------------------------

class MeshMismatch(LayerSolveError):
    """Double-mesh comparison attempted on meshes that are not nested."""


class ManufacturedMismatch(LayerSolveError):
    """Manufactured solution does not satisfy its own PDE to tolerance."""


# -- registry -----------------------------------------------------------------

class UnknownExample(InvalidInput):
    """Requested problem key is not in the registry."""


class CheckWarning(UserWarning):
    """Emitted when a non-strict runtime audit fails."""
