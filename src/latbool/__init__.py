"""latbool: exact Boolean operations on lattice polygonal regions with
certified inner and outer roundings (integer vertices, sub-sqrt(2) error).
"""

from .arrangement import ExactRegion, ExactVertex, OverlayStats, exact_boolean, exact_intersection
from .exact_core import (
    Pt,
    Region,
    Ring,
    UniverseBox,
    complement_in_universe,
    orientation,
    point_in_region,
    pt,
    segment_intersection,
    squared_distance,
    universe_for,
    validate_region,
)
from .lpr import parse_region, write_region
from .oracle import is_visible
from .rounding import inner_round, outer_round, pixel_set
from .setops import OpRequest, apply, sandwich

__all__ = [
    "ExactRegion", "ExactVertex", "OverlayStats", "exact_boolean",
    "exact_intersection", "Pt", "Region", "Ring", "UniverseBox",
    "complement_in_universe", "is_visible", "orientation", "point_in_region",
    "pt", "segment_intersection", "squared_distance", "universe_for",
    "validate_region", "parse_region", "write_region", "inner_round",
    "outer_round", "pixel_set", "OpRequest", "apply", "sandwich",
]

__version__ = "0.1.0"
