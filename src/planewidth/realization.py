"""Realizations: verification and every explicit arrangement construction.

A realization maps vertices to plane (or line) points so that adjacent
vertices sit at distance >= 1; its width is the diameter of the image.
All constructions here emit Euclidean realizations except the line and
the max-norm grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import check_proper
from .geometry import INF, L2, LINE, LINF, SQRT3, NormSpec, diameter, \
    edge_lengths, pal_hexagon
from .graphs import ParameterError

SQRT2 = math.sqrt(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0

#: exact widths of the optimal complete-graph arrangements, n = 2..8
COMPLETE_WIDTH = {
    2: 1.0,
    3: 1.0,
    4: SQRT2,
    5: PHI,
    6: 2.0 * math.sin(math.radians(72.0)),
    7: 2.0,
    8: 1.0 / (2.0 * math.sin(math.pi / 14.0)),
}


class InfeasibleError(ValueError):
    pass


class CertificateError(ValueError):
    """A construction precondition failed; carries the offending witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


@dataclass(frozen=True)
class Realization:
    points: tuple            # one coordinate tuple per vertex
    norm: NormSpec = L2

    def __post_init__(self):
        pts = tuple(tuple(float(x) for x in p) for p in self.points)
        for p in pts:
            if len(p) != self.norm.dim:
                raise ParameterError("point dimension != norm dimension")
            if not all(math.isfinite(x) for x in p):
                raise ParameterError("non-finite coordinate")
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return len(self.points)

    def array(self):
        return np.asarray(self.points, dtype=float)


def realization_from_array(arr, norm=L2):
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return Realization(tuple(map(tuple, arr)), norm)


@dataclass(frozen=True)
class Evaluation:
    width: float
    min_edge_distance: float
    valid: bool
    violating_edge: tuple | None = None


def evaluate(g, r, tol=1e-9):
    """Width, minimum edge distance, and a validity verdict."""
    if r.n != g.n:
        raise ParameterError("realization has %d points for %d vertices"
                             % (r.n, g.n))
    if g.n == 0:
        return Evaluation(0.0, math.inf, True)
    arr = r.array()
    width, _ = diameter(arr, r.norm)
    if g.m == 0:
        return Evaluation(width, math.inf, True)
    d = edge_lengths(arr, g.edge_array, r.norm)
    min_d = float(d.min())
    if min_d < 1.0 - tol:
        # the first violating edge in sorted order
        u, v = g.edge_array[int(np.argmax(d < 1.0 - tol))]
        return Evaluation(width, min_d, False, (int(u), int(v)))
    return Evaluation(width, min_d, True)


def feasibilize(g, r):
    """Scale about the centroid so the minimum edge distance becomes 1.

    Scales up or down; the width scales by the same factor, so the shape is
    kept.  Identity when the minimum edge distance is within 1e-12 of 1, so
    the output of a rescale is a fixed point.
    """
    if g.m == 0:
        raise ParameterError("feasibilize needs at least one edge")
    if r.n != g.n:
        raise ParameterError("realization has %d points for %d vertices"
                             % (r.n, g.n))
    arr = r.array()
    shortest = float(edge_lengths(arr, g.edge_array, r.norm).min())
    if shortest == 0.0:
        raise InfeasibleError("adjacent vertices share a point")
    if abs(shortest - 1.0) <= 1e-12:
        return r
    centroid = arr.mean(axis=0)
    scaled = centroid + (arr - centroid) / shortest
    return realization_from_array(scaled, r.norm)


# ---------------------------------------------------------------------------
# Complete-graph arrangements


def known_complete_arrangement(n):
    """The proven optimal arrangement of n mutually-constrained points, n<=8."""
    if not 2 <= n <= 8:
        raise ParameterError("known arrangements cover 2 <= n <= 8")
    if n == 2:
        pts = [(0.0, 0.0), (1.0, 0.0)]
    elif n == 3:
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0)]
    elif n == 4:
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    elif n == 5:
        r = 1.0 / (2.0 * math.sin(math.pi / 5.0))       # unit-side pentagon
        pts = _regular(5, r)
    elif n == 6:
        pts = _regular(5, 1.0) + [(0.0, 0.0)]           # circumradius-1 pentagon
    elif n == 7:
        pts = _regular(6, 1.0) + [(0.0, 0.0)]           # unit-side hexagon
    else:
        r = 1.0 / (2.0 * math.sin(math.pi / 7.0))       # unit-side heptagon
        pts = _regular(7, r) + [(0.0, 0.0)]
    return Realization(tuple(pts), L2)


def _regular(k, radius):
    return [(radius * math.cos(2.0 * math.pi * i / k),
             radius * math.sin(2.0 * math.pi * i / k)) for i in range(k)]


def lattice_complete_arrangement(n):
    """n unit-spacing triangular-lattice points packed around a cell center.

    The points are the n lattice points nearest to the center of a Voronoi
    cell (a lattice point), ties broken by angle then index, so the
    arrangement fills a disc and its width approaches sqrt(2*sqrt(3)/pi * n)
    for large n.  With c = sqrt(2*sqrt(3)/pi), the width always lies in the
    proven bracket [c*sqrt(n) - 1, c*sqrt(n) + 2/sqrt(3)]: the lower edge is
    the packing bound for any n unit-spaced points, the upper edge follows
    from the hexagonal Voronoi cells covering a disc.  At the measured
    n = 100, 1000, 10**4, width/sqrt(n) is 1.04403, 1.04499, 1.04919, so it
    approaches c ~ 1.05008 from below.  At n = 7 this recovers the unit
    hexagon plus its center.
    """
    if n < 2:
        raise ParameterError("need n >= 2")
    cx, cy = 0.0, 0.0
    radius = math.sqrt(n * SQRT3 / (2.0 * math.pi)) + 2.0
    jspan = int(math.ceil(radius / (SQRT3 / 2.0))) + 2
    cand = []
    idx = 0
    for j in range(-jspan, jspan + 1):
        y = (SQRT3 / 2.0) * j
        ilo = int(math.floor(-radius - 0.5 * j)) - 1
        ihi = int(math.ceil(radius - 0.5 * j)) + 2
        for i in range(ilo, ihi):
            x = i + 0.5 * j
            d = math.hypot(x - cx, y - cy)
            if d <= radius:
                cand.append((d, math.atan2(y - cy, x - cx), idx, x, y))
                idx += 1
    cand.sort()
    if len(cand) < n:
        raise AssertionError("lattice candidate pool too small")
    pts = [(x, y) for _, _, _, x, y in cand[:n]]
    return Realization(tuple(pts), L2)


# ---------------------------------------------------------------------------
# Constructions from colorings and homomorphisms


def color_class_targets(k):
    """Arrangement the k color classes map onto, as a point list."""
    if k <= 0:
        raise ParameterError("k must be positive")
    if k <= 3:
        return list(known_complete_arrangement(3).points)[:max(k, 1)]
    if k <= 8:
        return list(known_complete_arrangement(k).points)
    return list(lattice_complete_arrangement(k).points)


def _require_proper_certificate(g, c):
    bad = check_proper(g, c)
    if bad is not None:
        raise CertificateError("monochromatic edge (%d, %d)" % bad,
                               witness=bad)


def from_coloring(g, c):
    """Map every color class to one vertex of a known complete arrangement."""
    _require_proper_certificate(g, c)
    targets = color_class_targets(max(c.k, 1))
    pts = tuple(targets[c.colors[v]] for v in range(g.n))
    return Realization(pts, L2)


def from_circular(g, angles, chi_c):
    """Realize a circular coloring on a circle of radius 1/(2 sin(pi/chi_c)).

    Every edge must span an angular gap of at least 2*pi/chi_c; the resulting
    width is at most 1/sin(pi/chi_c).
    """
    if chi_c < 2:
        raise ParameterError("chi_c must be >= 2")
    if len(angles) != g.n:
        raise ParameterError("need one angle per vertex")
    gap = 2.0 * math.pi / chi_c
    for u, v in g.sorted_edges():
        delta = abs(angles[u] - angles[v]) % (2.0 * math.pi)
        delta = min(delta, 2.0 * math.pi - delta)
        if delta < gap - 1e-9:
            raise CertificateError("edge (%d, %d) has angular gap %.6f < %.6f"
                                   % (u, v, delta, gap), witness=(u, v))
    r = 1.0 / (2.0 * math.sin(math.pi / chi_c))
    pts = tuple((r * math.cos(angles[v]), r * math.sin(angles[v]))
                for v in range(g.n))
    return Realization(pts, L2)


def pullback(phi, r_target):
    """Compose a homomorphism with a realization of its target."""
    from .graphs import verify_homomorphism
    if not verify_homomorphism(phi):
        raise CertificateError("map is not a homomorphism")
    if r_target.n != phi.target.n:
        raise ParameterError("realization does not match target graph")
    pts = tuple(r_target.points[phi.map[v]] for v in range(phi.source.n))
    return Realization(pts, r_target.norm)


# ---------------------------------------------------------------------------
# Composition constructions


def _rigid_to_axis(arr, i, j):
    """Rotate/translate so point i sits at the origin and j on the -x axis."""
    a, b = arr[i], arr[j]
    d = b - a
    norm = math.hypot(d[0], d[1])
    if norm == 0.0:
        return arr - a
    ca, sa = -d[0] / norm, d[1] / norm      # rotate so (b - a) -> (-norm, 0)
    rot = np.array([[ca, -sa], [sa, ca]])
    return (arr - a) @ rot.T


def join_realization(g, h, r_g, r_h):
    """Arrangement of the join: diametral axes collinear, gap exactly 1.

    Each part lies behind the perpendicular through its facing diametral
    point (x <= 0 once aligned), so cross distances are at least the
    separation: 1, plus any rounding overshoot of either part past x = 0.
    """
    ag = _aligned(r_g)
    ah = _aligned(r_h)
    sep = 1.0 + max(ag[:, 0].max(), 0.0) + max(ah[:, 0].max(), 0.0)
    return realization_from_array(np.vstack([ag, (sep, 0.0) - ah]), L2)


def _aligned(r):
    arr = r.array()
    if r.n == 1:
        return arr - arr[0]
    _, (i, j) = diameter(arr, r.norm)
    return _rigid_to_axis(arr, i, j)


def product_realization(g, h, r_g, r_h):
    """Vector-sum arrangement of the Cartesian product (vertex (u,x) = u*h.n+x)."""
    ag, ah = r_g.array(), r_h.array()
    pts = (ag[:, None, :] + ah[None, :, :]).reshape(-1, 2)
    return realization_from_array(pts, L2)


def union_realization(g, h, r_g, r_h):
    """Overlay for the disjoint union: both enclosing hexagons centered and
    parallel at the origin, capping the width by the hexagon circumradii."""
    if r_g.norm != L2 or r_h.norm != L2:
        raise ParameterError("union construction is Euclidean only")
    out = []
    for r in (r_g, r_h):
        arr = r.array()
        hexa = pal_hexagon(arr)
        t = -hexa.orientation
        rot = np.array([[math.cos(t), -math.sin(t)],
                        [math.sin(t), math.cos(t)]])
        out.append((arr - np.asarray(hexa.center)) @ rot.T)
    return realization_from_array(np.vstack(out), L2)


# ---------------------------------------------------------------------------
# Degenerate-dimension constructions


def low_dim_realization(g, c, mode):
    """Realize via a proper coloring on a line or on a max-norm integer grid.

    line: color i at coordinate i, width k-1.
    linf-grid: color i at (i mod s, i div s) with s = ceil(sqrt(k)); the
    max-norm width is s-1, strictly below sqrt(k).
    """
    _require_proper_certificate(g, c)
    k = max(c.k, 1)
    if mode == "line":
        pts = tuple((float(c.colors[v]),) for v in range(g.n))
        return Realization(pts, LINE)
    if mode == "linf-grid":
        s = int(math.ceil(math.sqrt(k)))
        pts = tuple((float(c.colors[v] % s), float(c.colors[v] // s))
                    for v in range(g.n))
        return Realization(pts, LINF)
    raise ParameterError("mode must be 'line' or 'linf-grid'")


# ---------------------------------------------------------------------------
# File format


def _fmt(x):
    return "%.17g" % x


def write_realization(r, path):
    norm = '"inf"' if r.norm.p == INF else _fmt(r.norm.p)
    rows = ",\n    ".join(
        "[" + ", ".join(_fmt(x) for x in p) + "]" for p in r.points)
    with open(path, "w") as fh:
        fh.write('{\n  "n": %d,\n  "norm": %s,\n  "dim": %d,\n  "points": [\n    %s\n  ]\n}\n'
                 % (r.n, norm, r.norm.dim, rows))


def read_realization(path):
    import json
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ParameterError("realization file must hold a JSON object")
    for key in ("norm", "dim", "points"):
        if key not in obj:
            raise ParameterError("realization file has no %r key" % key)
    rows = obj["points"]
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ParameterError("realization 'points' must be a list of "
                             "coordinate lists")
    try:
        p = INF if obj["norm"] == "inf" else float(obj["norm"])
        norm = NormSpec(p, int(obj["dim"]))
        return Realization(tuple(map(tuple, rows)), norm)
    except TypeError as exc:
        raise ParameterError("malformed realization: %s" % exc) from None
