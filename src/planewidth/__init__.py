"""Plane-width of graphs: certified bounds, realizations and colorings.

Map vertices to plane points with adjacent vertices at least unit distance
apart; the plane-width is the least possible diameter of the image.  This
package computes certified lower/upper intervals for it, builds explicit
realizations, extracts proper colorings from geometric partitions, and
numerically searches for near-optimal arrangements.
"""

from .bounds import BoundReport, kn_lower, pw_interval
from .coloring import Coloring, ChromaticResult, chromatic_number, max_clique
from .geometry import Hexagon, NormSpec, diameter, distance, pal_hexagon
from .graphs import Graph, cartesian, circulant, circle_star, complement, \
    complete, cycle, disjoint_union, generate, join, odd_wheel
from .optimizer import OptimizeConfig, OptimizeResult, brute_force, optimize
from .partition import extract_coloring, partition_unit, tiling_coloring
from .realization import Evaluation, Realization, evaluate, feasibilize, \
    from_circular, from_coloring, known_complete_arrangement, \
    lattice_complete_arrangement, low_dim_realization

__all__ = [
    "BoundReport", "Coloring", "ChromaticResult", "Evaluation", "Graph",
    "Hexagon", "NormSpec", "OptimizeConfig", "OptimizeResult", "Realization",
    "brute_force", "cartesian", "chromatic_number", "circle_star",
    "circulant", "complement", "complete", "cycle", "diameter",
    "disjoint_union", "distance", "evaluate", "extract_coloring",
    "feasibilize", "from_circular", "from_coloring", "generate", "join",
    "kn_lower", "known_complete_arrangement", "lattice_complete_arrangement",
    "low_dim_realization", "max_clique", "odd_wheel", "optimize",
    "pal_hexagon", "partition_unit", "pw_interval", "tiling_coloring",
]

__version__ = "0.1.0"
