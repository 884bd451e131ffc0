"""Exception types shared across the toolkit."""


class CongrulabError(Exception):
    """Base class for all toolkit errors."""


class NonOrthogonalError(CongrulabError, ValueError):
    """Vectors required to be orthogonal are not (beyond tolerance)."""


class EmptyInputError(CongrulabError, ValueError):
    """An operation received no data."""


class GridMismatchError(CongrulabError, ValueError):
    """Two grid functions do not share the same grid."""


class UnsupportedKindError(CongrulabError, ValueError):
    """The requested evaluation is not available for this body kind/shape."""


class OriginOutsideError(CongrulabError, ValueError):
    """Radial evaluation requires the origin in the interior of the body."""


class DegenerateBodyError(CongrulabError):
    """Width maximizers are not isolated (ball-like body, or ambiguous diameter)."""


class DiameterHypothesisFailed(CongrulabError):
    """The required diameter configuration does not hold for the input bodies."""


class CongruenceHypothesisFailed(CongrulabError):
    """No admissible rotation registers the two restrictions on some sphere."""

    def __init__(self, w, residual, message=None):
        self.w = w
        self.residual = residual
        super().__init__(message or f"no rotation registers at w={w} (residual {residual:.3e})")


class StarShapednessLost(CongrulabError):
    """The candidate translation moves the origin out of the body."""


class TooFewVerticesError(CongrulabError, ValueError):
    """Symmetry detection needs at least 4 vertices."""


class DegenerateProjectionError(CongrulabError):
    """A 3D projection collapsed to dimension <= 2."""


class InsufficientDataError(CongrulabError, ValueError):
    """Not enough data points for the requested fit."""


class BudgetExhaustedError(CongrulabError):
    """The perturbation loop ran out of attempts."""


class SpecParseError(CongrulabError, ValueError):
    """A body spec file could not be parsed."""


class ConfigInvalidError(CongrulabError, ValueError):
    """Run configuration failed validation."""
