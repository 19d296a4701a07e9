"""Core choreographic programming abstractions.

The public surface mirrors the paper's MultiChor/ChoRus/ChoreoTS libraries:
locations and censuses, multiply-located values, faceted values and quires,
the ``ChoreoOp`` operator record, and endpoint projection as dependency
injection.
"""

from .errors import (
    CensusError,
    ChoreographyError,
    ChoreographyRuntimeError,
    ChoreoTimeout,
    EmptyCensusError,
    OwnershipError,
    PlaceholderError,
    TransportError,
)
from .epp import Endpoint, ProjectedOp, project
from .located import ABSENT, Faceted, Located, Quire
from .locations import Census, Location, as_census, single
from .ops import ChoreoOp, Choreography, Unwrapper

__all__ = [
    "ABSENT",
    "Census",
    "CensusError",
    "ChoreoOp",
    "Choreography",
    "ChoreographyError",
    "ChoreographyRuntimeError",
    "ChoreoTimeout",
    "EmptyCensusError",
    "Endpoint",
    "Faceted",
    "Located",
    "Location",
    "OwnershipError",
    "PlaceholderError",
    "ProjectedOp",
    "Quire",
    "TransportError",
    "Unwrapper",
    "as_census",
    "project",
    "single",
]
