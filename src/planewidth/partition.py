"""Geometric partitions of bounded-diameter sets and coloring extraction.

Three schemes split a unit-diameter set into few pieces of guaranteed
smaller diameter (3 pieces below sqrt(3)/2, 4 below sqrt(2)/2, 7 below 1/2);
applied at the right scale they turn a realization into a proper coloring.
A hexagonal tiling does the same for arrangements of any width.
"""

from __future__ import annotations

import math

import numpy as np

from .coloring import Coloring, require_proper
from .geometry import L2, SQRT3, _hex_directions, _points, diameter, \
    pal_hexagon
from .graphs import CertificateError, InternalConsistencyError, ParameterError
from .realization import evaluate

#: intra-piece diameter guarantee per scheme, at unit input diameter
SCHEME_DELTA = {3: SQRT3 / 2.0, 4: math.sqrt(2.0) / 2.0, 7: 0.5}

#: maximum realization width each scheme can turn into a proper coloring
SCHEME_THRESHOLD = {3: 2.0 / SQRT3, 4: math.sqrt(2.0), 7: 2.0}
_BAD_SCHEME = "scheme must be %s or %d" % (
    ", ".join(map(str, sorted(SCHEME_THRESHOLD)[:-1])), max(SCHEME_THRESHOLD))


def partition_unit(points, scheme):
    """Label each point of a unit-diameter set with its partition piece.

    Returns one label in 0..scheme-1 per point; every two points sharing a
    label are closer than the scheme's guarantee.
    """
    pts = _points(points)
    if scheme not in SCHEME_DELTA:
        raise ParameterError(_BAD_SCHEME)
    if len(pts) == 0:
        return []
    d, _ = diameter(pts, L2)
    if d > 1.0 + 1e-9:
        raise CertificateError("diameter %.12g exceeds 1" % d)
    split = {3: _hex_sectors, 4: _square_quadrants, 7: _hex_core_rim}[scheme]
    return split(pts).tolist()


def _hex_sectors(pts):
    """Cut the enclosing hexagon along center-to-side-midpoint lines of
    alternating sides; each 120-degree sector has diameter sqrt(3)/2 times
    the hexagon width.  Sector i is inclusive of its lower cut line."""
    hexa = pal_hexagon(pts)
    rel = pts - np.asarray(hexa.center)
    # math.atan2, not np.arctan2: the two round differently, which moves
    # points on a cut line between sectors
    ang = np.vectorize(math.atan2)(rel[:, 1], rel[:, 0]) - hexa.orientation
    labels = (ang % (2.0 * math.pi) // (2.0 * math.pi / 3.0)).astype(int) % 3
    labels[(rel == 0.0).all(axis=1)] = 0    # hexagon center goes to piece 0
    return labels


def _square_quadrants(pts):
    """Quadrants of a surrounding unit square split at its center.

    The square is positioned so a point-free corner maps to the origin
    (reflecting axes as needed).  A point goes to the first closed quadrant
    holding it; to keep each (sqrt(2)/2)-small, the proof's removed points
    (0, 1/2) and the center go to SW and (1/2, 0) goes to SE.
    """
    local = pts - pts.min(axis=0)
    side = float(local.max(initial=0.0))
    if side > 1.0:                           # tolerance slack only
        local = local / side
    eps = 1e-12
    corners = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    taken = (np.abs(local[:, None] - corners) <= eps).all(axis=2).any(axis=0)
    if taken.all():
        raise InternalConsistencyError("no point-free corner on a unit-diameter set")
    # reflect so the free corner becomes (0, 0)
    local = np.where(corners[np.argmin(taken)] == 1.0, 1.0 - local, local)

    h = 0.5
    # within eps of a centre line is on it: (0, 0.5 + ulp) is the removed
    # point (0, h), so it goes to SW
    local = np.where(np.abs(local - h) <= eps, h, local)
    x, y = local[:, 0], local[:, 1]
    labels = np.where(y >= h, 0, 2) + (x > h)     # NW 0, NE 1, SW 2, SE 3
    labels[(y == h) & ((x <= eps) | (x == h))] = 2  # (0, h) and the center
    labels[(x == h) & (y <= eps)] = 3               # (h, 0)
    return labels


def _hex_core_rim(pts):
    """Inner hexagon core plus six rim pieces, each (1/2)-small at unit scale.

    For the enclosing hexagon with side midpoints m_i and vertices p_i, the
    core is the hull of the points q_i placed (sqrt(3)-1)/2 (times the width)
    from m_i toward the opposite midpoint; rim piece i is the hull of
    q_i, m_i, p_i, m_{i+1}, q_{i+1}.  A point goes to the first region that
    holds it up to eps (core first), else to the least violated one, matching
    the proof's inclusive/exclusive boundary rules.
    """
    hexa = pal_hexagon(pts)
    w = hexa.width
    if w == 0.0:
        return np.zeros(len(pts), dtype=int)
    corners = hexa.corners()                       # p_0..p_5, ccw
    mids = (np.roll(corners, 1, axis=0) + corners) / 2.0
    toward = np.asarray(hexa.center) - mids        # midpoint -> center, length w/2
    q = mids + toward / (w / 2.0) * ((SQRT3 - 1.0) / 2.0 * w)
    q1, mids1 = np.roll(q, -1, axis=0), np.roll(mids, -1, axis=0)
    rims = np.stack([q, mids, corners, mids1, q1], axis=1)
    violation = np.hstack([_violation(pts, q[None]), _violation(pts, rims)])

    # excluded boundary points keep each piece strictly small: the core
    # gives up the q_i, rim piece i gives up q_{i+1} and m_{i+1}
    eps = 1e-12 * max(w, 1.0)
    diff = pts[:, None] - np.concatenate([q, mids])
    near_q, near_m = np.split(np.hypot(diff[..., 0], diff[..., 1]) <= eps, 2,
                              axis=1)
    excluded = np.column_stack([near_q.any(axis=1),
                                np.roll(near_q | near_m, -1, axis=1)])
    violation[excluded] = math.inf
    hit = violation <= eps
    return np.where(hit.any(axis=1), hit.argmax(axis=1),
                    violation.argmin(axis=1))      # numeric sliver: least out


def _violation(pts, loops):
    """(n, r) max signed distance of each point outside each of the r convex
    polygons in ``loops`` ((r, k, 2), ccw); <= 0 means inside."""
    edges = np.roll(loops, -1, axis=1) - loops
    normals = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)   # inward
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    offsets = (normals * loops).sum(axis=-1)
    return (offsets - np.einsum("nd,rkd->nrk", pts, normals)).max(axis=2)


# ---------------------------------------------------------------------------
# Coloring extraction


def _euclidean_width(g, r):
    """Width of ``r``, a valid Euclidean realization of ``g``."""
    if r.norm != L2:
        raise ParameterError("coloring from a realization is Euclidean only")
    ev = evaluate(g, r)
    if not ev.valid:
        raise CertificateError("realization is invalid")
    return ev.width


def extract_coloring(g, r, scheme):
    """Proper coloring from a realization via a unit-scale partition.

    The arrangement is scaled to unit diameter, unless its points coincide,
    and partitioned; pieces are 1-small at the original scale whenever the
    width is at most the scheme threshold, so no edge is monochromatic.
    """
    if scheme not in SCHEME_THRESHOLD:
        raise ParameterError(_BAD_SCHEME)
    thr = SCHEME_THRESHOLD[scheme]
    d = _euclidean_width(g, r)
    if d > thr + 1e-9:
        raise CertificateError("width %.12g exceeds scheme-%d threshold %.12g"
                               % (d, scheme, thr))
    return _compact(partition_unit(r.coords / (d or 1.0), scheme))


def _compact(labels):
    """Relabel 0, 1, ... in order of first appearance; ``labels`` holds one
    label, or one row of labels, per vertex."""
    _, first, inverse = np.unique(np.asarray(labels), axis=0,
                                  return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return Coloring(rank[inverse.reshape(-1)].tolist())


# ---------------------------------------------------------------------------
# Hexagonal tiling coloring


def tiling_parameter(width):
    """Cell-count parameter; guarantees cell diameter 2*width/(3t) < 1."""
    return int(math.floor(2.0 * width / 3.0)) + 1


def tiling_color_cap(t):
    return 3 * t * t + 3 * t + 1


def tiling_coloring(g, r):
    """Color by hexagonal tiling cell identity.

    The enclosing hexagon of the arrangement (width d) is aligned with a
    tiling of cell side d/(3t); its corners land on cell centers t lattice
    steps out, so 3t^2+3t+1 cells cover everything.  Cell diameter is below
    1, which forces adjacent vertices into distinct cells; the coloring is
    still checked, since far from the origin rounding can merge two cells.
    """
    d = _euclidean_width(g, r)
    if d == 0.0:
        return Coloring([0] * g.n), 1
    t = tiling_parameter(d)
    step = SQRT3 * (d / (3.0 * t))             # cell side d/(3t), times sqrt 3
    hexa = pal_hexagon(r.coords)
    # cell normals: the enclosure's corners lie along these directions,
    # t lattice steps from the center
    basis = (_hex_directions(hexa.orientation + math.pi / 6.0, 2) * step).T
    frac = (r.coords - np.asarray(hexa.center)) @ np.linalg.inv(basis).T
    cells = _nearest_hex_cells(frac)
    steps_out = (np.abs(cells).sum(axis=1) + np.abs(cells.sum(axis=1))) // 2
    if steps_out.max() > t:
        raise CertificateError(
            "point fell outside the %d designated cells" % tiling_color_cap(t))
    c = _compact(cells)
    require_proper(g, c)
    return c, t


def _nearest_hex_cells(frac):
    """Nearest tiling-cell centers of the (n, 2) axial coordinates ``frac``,
    as an (n, 2) array of whole-number floats (an int64 cast would wrap past
    9.2e18), by cube rounding.

    With x = i, z = j and y = -x - z, round all three and recompute the one
    with the largest rounding error from the other two
    (https://www.redblobgames.com/grids/hexagons/#rounding).
    """
    x, z = frac[:, 0], frac[:, 1]
    cube = np.stack([x, -x - z, z], axis=1)
    rounded = np.rint(cube)
    dx, dy, dz = np.abs(rounded - cube).T
    rx, ry, rz = rounded.T
    fix_x = (dx > dy) & (dx > dz)
    rx = np.where(fix_x, -ry - rz, rx)
    rz = np.where(~fix_x & (dz >= dy), -rx - ry, rz)
    return np.stack([rx, rz], axis=1)
