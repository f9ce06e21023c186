"""Exception and warning types shared across the package."""


class FaberBohrError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FaberBohrError, ValueError):
    """An argument lies outside the mathematical domain of the operation.

    param, when given, names the argument at fault, so that a front end
    can name its own flag for it.
    """

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class PointInsideK(FaberBohrError):
    """A point belongs to the compact set where the exterior map is undefined."""


class PointOutsideK(FaberBohrError):
    """A point was required to lie on the compact set but does not."""


class InsideUnitDisc(FaberBohrError):
    """The inverse exterior map was evaluated at |w| <= 1."""


class PointInsideLevel(FaberBohrError):
    """The point lies inside the level curve, where this operation is invalid."""


class PointOutsideLevel(FaberBohrError):
    """The point lies outside the level curve, where this operation is invalid."""


class NotOnLevel(FaberBohrError):
    """The point does not lie on the required level curve."""


class WrongKind(FaberBohrError, TypeError):
    """The continuum kind does not support this operation."""


class NonConvergent(FaberBohrError):
    """An iterative refinement failed to reach its tolerance."""


class LengthMismatch(FaberBohrError, ValueError):
    """Parallel sequences passed to a check have different lengths."""


class GridExhausted(FaberBohrError):
    """No grid point satisfied the searched condition."""


class PreconditionViolated(FaberBohrError):
    """A sampled analytic precondition failed.

    Carries the offending sample so reports can point at evidence.
    """

    def __init__(self, message, point=None, value=None):
        super().__init__(message)
        self.point = point
        self.value = value


class CertificationFailed(FaberBohrError):
    """Boundary sampling could not certify the required sup bound."""


class ReconstructionMismatch(FaberBohrError):
    """A coefficient series failed to reproduce its source function."""


class AliasingRisk(UserWarning):
    """Discrete Fourier extraction may be contaminated by aliasing."""
