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

from .coloring import require_proper
from .geometry import INF, L2, LINE, LINF, SQRT3, NormSpec, _points, \
    diameter, edge_lengths, pal_hexagon
from .graphs import CertificateError, InternalConsistencyError, \
    ParameterError, circle_points

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


@dataclass(frozen=True, eq=False)
class Realization:
    """One point per vertex under a norm.

    Built from any (n, dim) array-like, such as a tuple of coordinate tuples;
    ``coords`` then holds the points as a read-only (n, dim) float array, and
    ``points`` gives them back as tuples.
    """

    coords: np.ndarray
    norm: NormSpec = L2

    def __post_init__(self):
        arr = _points(self.coords, self.norm.dim).copy()   # ours to freeze
        if not np.isfinite(arr).all():
            raise ParameterError("non-finite coordinate")
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    def __eq__(self, other):
        return (isinstance(other, Realization) and self.norm == other.norm
                and np.array_equal(self.coords, other.coords))

    def __hash__(self):
        return hash((self.norm, (self.coords + 0.0).tobytes()))  # -0.0 == 0.0

    @property
    def n(self):
        return len(self.coords)

    @property
    def points(self):
        return tuple(zip(*self.coords.T.tolist()))


@dataclass(frozen=True)
class Evaluation:
    width: float
    min_edge_distance: float
    valid: bool
    violating_edge: tuple | None = None


def evaluate(g, r, tol=1e-9):
    """Width, minimum edge distance, and a validity verdict.

    An edge is valid when its length is at least 1 - tol; tol must be below 1.
    A float overflow is a ParameterError (it can leave a finite, wrong width).
    """
    if not tol < 1.0:
        raise ParameterError("tol must be a number below 1, got %r" % tol)
    if r.n != g.n:
        raise ParameterError("realization has %d points for %d vertices"
                             % (r.n, g.n))
    if g.n == 0:
        return Evaluation(0.0, math.inf, True)
    arr = r.coords
    try:
        with np.errstate(over="raise", invalid="raise"):
            width, _ = diameter(arr, r.norm)
            d = edge_lengths(arr, g.edge_array, r.norm)
    except FloatingPointError:
        raise ParameterError("realization width overflows the float "
                             "range") from None
    min_d = float(d.min(initial=math.inf))
    if min_d < 1.0 - tol:
        # the first violating edge in sorted order
        u, v = g.edge_array[int(np.argmax(d < 1.0 - tol))]
        return Evaluation(width, min_d, False, (int(u), int(v)))
    return Evaluation(width, min_d, True)


def feasibilize(g, r):
    """Scale about the centroid so the minimum edge distance becomes 1.

    Divides by the shortest edge as ``evaluate`` measures it, so the shape
    is kept and an overflow is its ParameterError.  Identity when the minimum
    edge distance is within 1e-12 of 1, so a rescale is a fixed point.
    """
    if g.m == 0:
        raise ParameterError("feasibilize needs at least one edge")
    shortest = evaluate(g, r).min_edge_distance
    if shortest == 0.0:
        raise CertificateError("adjacent vertices share a point")
    if abs(shortest - 1.0) <= 1e-12:
        return r
    centroid = r.coords.mean(axis=0)
    return Realization(centroid + (r.coords - centroid) / shortest, r.norm)


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
        pts = circle_points(5, r)
    elif n == 6:
        pts = circle_points(5, 1.0) + [(0.0, 0.0)]      # circumradius-1 pentagon
    elif n == 7:
        pts = circle_points(6, 1.0) + [(0.0, 0.0)]      # unit-side hexagon
    else:
        r = 1.0 / (2.0 * math.sin(math.pi / 7.0))       # unit-side heptagon
        pts = circle_points(7, r) + [(0.0, 0.0)]
    return Realization(pts, L2)


def lattice_complete_arrangement(n):
    """n unit-spacing triangular-lattice points packed around a cell center.

    The points are the n lattice points nearest to the center of a Voronoi
    cell (a lattice point), ties broken by angle, so the arrangement fills a
    disc and its width approaches sqrt(2*sqrt(3)/pi * n) for large n.  With
    c = sqrt(2*sqrt(3)/pi), the width always lies in the proven bracket
    [c*sqrt(n) - 1, c*sqrt(n) + 2/sqrt(3)]: the lower edge is
    the packing bound for any n unit-spaced points, the upper edge follows
    from the hexagonal Voronoi cells covering a disc.  At the measured
    n = 100, 1000, 10**4, width/sqrt(n) is 1.04403, 1.04499, 1.04919, so it
    approaches c ~ 1.05008 from below.  At n = 7 this recovers the unit
    hexagon plus its center.
    """
    if n < 2:
        raise ParameterError("need n >= 2")
    radius = math.sqrt(n * SQRT3 / (2.0 * math.pi)) + 2.0
    span = int(math.ceil(radius / (SQRT3 / 2.0))) + 2
    # row j, column i of a box holding the disc: the point i + j/2, j*sqrt(3)/2
    j, i = np.mgrid[-span:span + 1, -2 * span:2 * span + 1].reshape(2, -1)
    x, y = i + 0.5 * j, (SQRT3 / 2.0) * j
    # math.hypot and math.atan2, not np.hypot or sqrt(x*x + y*y): they round
    # differently, which reorders points at equal distance
    d = np.vectorize(math.hypot)(x, y)
    order = np.lexsort((np.vectorize(math.atan2)(y, x), d))
    order = order[d[order] <= radius]
    if len(order) < n:
        raise InternalConsistencyError("lattice candidate pool too small")
    return Realization(np.stack([x, y], axis=1)[order[:n]], L2)


# ---------------------------------------------------------------------------
# Constructions from colorings and homomorphisms


def color_class_targets(k):
    """Arrangement the k >= 1 color classes map onto, as a (k, 2) array."""
    if k <= 8:
        return known_complete_arrangement(max(k, 2)).coords[:k]
    return lattice_complete_arrangement(k).coords


def from_coloring(g, c):
    """Map every color class to one vertex of a known complete arrangement."""
    require_proper(g, c)
    targets = color_class_targets(max(c.k, 1))
    return Realization(targets[np.asarray(c.colors, dtype=np.intp)], L2)


def from_circular(g, angles, chi_c):
    """Realize a circular coloring on a circle of radius 1/(2 sin(pi/chi_c)).

    An edge spanning an angular gap of at least 2*pi/chi_c is a chord of
    length at least 1, and the width is at most 1/sin(pi/chi_c).  The placed
    points are judged by ``evaluate``: its first violating edge is the
    witness of the CertificateError raised.
    """
    if not 2 <= chi_c < math.inf:
        raise ParameterError("chi_c must be a finite number >= 2, got %r"
                             % (chi_c,))
    r = 1.0 / (2.0 * math.sin(math.pi / chi_c))
    placed = Realization([(r * math.cos(t), r * math.sin(t)) for t in angles],
                         L2)
    bad = evaluate(g, placed).violating_edge
    if bad is not None:
        raise CertificateError("edge %r is shorter than 1 on the circle for "
                               "chi_c = %r" % (bad, chi_c), witness=bad)
    return placed


def pullback(g, h, phi, r_h):
    """Realize g through a homomorphism phi: g -> h and a realization r_h.

    phi gives one vertex of h for each vertex of g, and vertex v lands on the
    point of phi[v]; each edge of g must map to an edge of h.
    """
    phi = np.asarray(phi)
    if (phi.shape != (g.n,) or phi.size and phi.dtype.kind not in "iu"
            or ((phi < 0) | (phi >= h.n)).any()):
        raise ParameterError("map must send each vertex of g to a vertex of h")
    if r_h.n != h.n:
        raise ParameterError("realization does not match target graph")
    phi = phi.astype(np.intp)
    img = phi[g.edge_array]
    lo, hi = img.min(axis=1), img.max(axis=1)      # a loop lo == hi never hits
    u, v = h.edge_array.T
    if not np.isin(lo * h.n + hi, u * h.n + v).all():
        raise CertificateError("map is not a homomorphism")
    return Realization(r_h.coords[phi], r_h.norm)


# ---------------------------------------------------------------------------
# Composition constructions


def _check_parts(g, h, r_g, r_h):
    """The composition constructions take Euclidean realizations of g and h."""
    if r_g.norm != L2 or r_h.norm != L2:
        raise ParameterError("composition constructions are Euclidean only")
    if r_g.n != g.n or r_h.n != h.n:
        raise ParameterError("realizations have %d and %d points for %d and "
                             "%d vertices" % (r_g.n, r_h.n, g.n, h.n))


def join_realization(g, h, r_g, r_h):
    """Arrangement of the join: diametral axes collinear, gap exactly 1.

    Each part lies behind the perpendicular through its facing diametral
    point (x <= 0 once aligned), so cross distances are at least the
    separation: 1, plus any rounding overshoot of either part past x = 0.
    """
    _check_parts(g, h, r_g, r_h)
    ag = _aligned(r_g)
    ah = _aligned(r_h)
    sep = 1.0 + max(ag[:, 0].max(), 0.0) + max(ah[:, 0].max(), 0.0)
    return Realization(np.vstack([ag, (sep, 0.0) - ah]), L2)


def _aligned(r):
    """Rotate/translate so one diametral point a sits at the origin, b on -x."""
    arr = r.coords
    _, (i, j) = diameter(arr, r.norm)
    a, d = arr[i], arr[j] - arr[i]
    norm = math.hypot(d[0], d[1])
    if norm == 0.0:
        return arr - a
    ca, sa = -d[0] / norm, d[1] / norm      # rotate so (b - a) -> (-norm, 0)
    return (arr - a) @ np.array([[ca, -sa], [sa, ca]]).T


def product_realization(g, h, r_g, r_h):
    """Vector-sum arrangement of the Cartesian product (vertex (u,x) = u*h.n+x)."""
    _check_parts(g, h, r_g, r_h)
    ag, ah = r_g.coords, r_h.coords
    return Realization((ag[:, None, :] + ah[None, :, :]).reshape(-1, 2), L2)


def union_realization(g, h, r_g, r_h):
    """Overlay for the disjoint union: both enclosing hexagons centered and
    parallel at the origin, capping the width by the hexagon circumradii."""
    _check_parts(g, h, r_g, r_h)
    out = []
    for r in (r_g, r_h):
        arr = r.coords
        hexa = pal_hexagon(arr)
        t = -hexa.orientation
        rot = np.array([[math.cos(t), -math.sin(t)],
                        [math.sin(t), math.cos(t)]])
        out.append((arr - np.asarray(hexa.center)) @ rot.T)
    return Realization(np.vstack(out), L2)


# ---------------------------------------------------------------------------
# Degenerate-dimension constructions


def low_dim_realization(g, c, mode):
    """Realize via a proper coloring on a line or on a max-norm integer grid.

    line: color i at coordinate i, width k-1.
    linf-grid: color i at (i mod s, i div s) with s = ceil(sqrt(k)); the
    max-norm width is s-1, strictly below sqrt(k).
    """
    require_proper(g, c)
    colors = np.asarray(c.colors, dtype=np.intp)
    if mode == "line":
        return Realization(colors[:, None], LINE)
    if mode == "linf-grid":
        s = int(math.ceil(math.sqrt(max(c.k, 1))))
        return Realization(np.stack([colors % s, colors // s], axis=1), LINF)
    raise ParameterError("mode must be 'line' or 'linf-grid'")


# ---------------------------------------------------------------------------
# File format


def _fmt(x):
    # JSON reads "-0" back as the integer 0, so negative zero keeps a ".0"
    return "-0.0" if x == 0.0 and math.copysign(1.0, x) < 0 else "%.17g" % x


def write_realization(r, path):
    norm = '"inf"' if r.norm.p == INF else _fmt(r.norm.p)
    rows = ",\n    ".join(
        "[" + ", ".join(_fmt(x) for x in p) + "]" for p in r.coords.tolist())
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
    n = obj.get("n", len(rows))
    for key, value in (("dim", obj["dim"]), ("n", n)):
        if type(value) is not int:      # bool, str and float are refused
            raise ParameterError("realization %r must be an integer, got %r"
                                 % (key, value))
    if n != len(rows):
        raise ParameterError("realization 'n' is %d, but it has %d points"
                             % (n, len(rows)))
    if isinstance(obj["norm"], bool):
        raise ParameterError("realization 'norm' must be a number or \"inf\", "
                             "got %r" % (obj["norm"],))
    try:
        p = INF if obj["norm"] == "inf" else float(obj["norm"])
        norm = NormSpec(p, obj["dim"])
        return Realization(rows, norm)
    except TypeError as exc:
        raise ParameterError("malformed realization: %s" % exc) from None
