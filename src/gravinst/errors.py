"""Exception taxonomy shared by the geometry and verification modules."""


class GeometryError(Exception):
    """Base class for failures of the numerical geometry routines."""


class NumericOverflowError(GeometryError):
    """A computation produced a non-finite value."""


class DegenerateMetricError(GeometryError):
    """Metric is numerically singular (condition number too large)."""


class PoleError(GeometryError):
    """Evaluation requested at a pole of the defining data (a center)."""


class DiracStringError(GeometryError):
    """Connection form evaluated on a Dirac string, the ray below a center."""


class ChartBoundaryError(GeometryError):
    """Point lies outside the validity region of the coordinate chart."""


class ConvergenceError(GeometryError):
    """An iterative solver failed to reach its tolerance."""


class SingularFiberError(GeometryError):
    """Configuration data describes a singular (non-smooth) space."""


class InvalidSignatureError(ValueError):
    """Quotient signature fails its arithmetic constraints."""


class PathBlockedError(GeometryError):
    """Integration path passes through a center or other obstruction."""


class FitDomainError(GeometryError):
    """Sample range is unsuitable for an asymptotic fit."""


class ScanError(GeometryError):
    """A verification scan could not collect enough usable samples.

    samples holds the scan's per-sample records, when it evaluated any.
    """

    def __init__(self, message: str, samples: tuple = ()):
        super().__init__(message)
        self.samples = samples
