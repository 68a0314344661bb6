"""Explicit ALE/ALF Ricci-flat Kahler metrics on smoothings of cyclic
quotient singularities, with direct numerical verification of their
defining properties (Ricci-flatness, Kahler identities, group invariance,
asymptotic decay and volume growth).

Two independent constructions are provided: a twistor-type chart metric on
the smoothing of an A-type singularity (:mod:`gravinst.hitchin`) and the
multi-center Gibbons-Hawking ansatz (:mod:`gravinst.ghawking`).  The
:mod:`gravinst.verify` module cross-checks them against each other and
against the expected asymptotics; :mod:`gravinst.cli` exposes everything
as a command line tool.
"""

from gravinst.errors import (
    ChartBoundaryError,
    ConvergenceError,
    DegenerateMetricError,
    DiracStringError,
    FitDomainError,
    GeometryError,
    InvalidSignatureError,
    NumericOverflowError,
    PathBlockedError,
    PoleError,
    ScanError,
    SingularFiberError,
)
from gravinst.singularities import (
    Center,
    CenterConfiguration,
    QuotientSignature,
    make_akl_config,
    make_polygon_config,
)
from gravinst.tensorcalc import (
    CurvatureBundle,
    curvature_at,
    exterior_derivative,
    nijenhuis_at,
)

__version__ = "0.1.0"

__all__ = [
    "Center",
    "CenterConfiguration",
    "ChartBoundaryError",
    "ConvergenceError",
    "CurvatureBundle",
    "DegenerateMetricError",
    "DiracStringError",
    "FitDomainError",
    "GeometryError",
    "InvalidSignatureError",
    "NumericOverflowError",
    "PathBlockedError",
    "PoleError",
    "QuotientSignature",
    "ScanError",
    "SingularFiberError",
    "curvature_at",
    "exterior_derivative",
    "make_akl_config",
    "make_polygon_config",
    "nijenhuis_at",
]
