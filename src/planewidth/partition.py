"""Geometric partitions of bounded-diameter sets and coloring extraction.

Three schemes split a unit-diameter set into few pieces of guaranteed
smaller diameter (3 pieces below sqrt(3)/2, 4 below sqrt(2)/2, 7 below 1/2);
applied at the right scale they turn a realization into a proper coloring.
A hexagonal tiling does the same for arrangements of any width.
"""

from __future__ import annotations

import math

import numpy as np

from .coloring import coloring_from_list
from .geometry import L2, SQRT3, diameter, pal_hexagon
from .graphs import ParameterError
from .realization import evaluate

#: intra-piece diameter guarantee per scheme, at unit input diameter
SCHEME_DELTA = {3: SQRT3 / 2.0, 4: math.sqrt(2.0) / 2.0, 7: 0.5}

#: maximum realization width each scheme can turn into a proper coloring
SCHEME_THRESHOLD = {3: 2.0 / SQRT3, 4: math.sqrt(2.0), 7: 2.0}


class PartitionPreconditionError(ValueError):
    def __init__(self, message, threshold=None):
        self.threshold = threshold
        super().__init__(message)


def partition_unit(points, scheme):
    """Label each point of a unit-diameter set with its partition piece.

    Returns one label in 0..scheme-1 per point; every two points sharing a
    label are closer than the scheme's guarantee.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, 2)
    if scheme not in SCHEME_DELTA:
        raise ParameterError("scheme must be 3, 4 or 7")
    if len(pts) == 0:
        return []
    d, _ = diameter(pts, L2)
    if d > 1.0 + 1e-9:
        raise PartitionPreconditionError(
            "diameter %.12g exceeds 1" % d, threshold=1.0)
    if len(pts) == 1:
        return [0]
    if scheme == 3:
        return _hex_sectors(pts)
    if scheme == 4:
        return _square_quadrants(pts)
    return _hex_core_rim(pts)


def _hex_sectors(pts):
    """Cut the enclosing hexagon along center-to-side-midpoint lines of
    alternating sides; each 120-degree sector has diameter sqrt(3)/2 times
    the hexagon width.  Sector i is inclusive of its lower cut line."""
    hexa = pal_hexagon(pts)
    c = np.asarray(hexa.center)
    labels = []
    for p in pts:
        rel = p - c
        if rel[0] == 0.0 and rel[1] == 0.0:
            labels.append(0)        # hexagon center goes to the first piece
            continue
        ang = (math.atan2(rel[1], rel[0]) - hexa.orientation) % (2.0 * math.pi)
        labels.append(int(ang // (2.0 * math.pi / 3.0)) % 3)
    return labels


def _square_quadrants(pts):
    """Quadrants of a surrounding unit square split at its center.

    The square is positioned so a point-free corner maps to the origin
    (reflecting axes as needed); each closed quadrant minus two boundary
    points is (sqrt(2)/2)-small, and overlap goes to the lowest region index.
    """
    xmin, ymin = pts.min(axis=0)
    local = pts - np.array([xmin, ymin])
    side = float(local.max(initial=0.0))
    if side > 1.0:                           # tolerance slack only
        local = local / side
    local = np.clip(local, 0.0, 1.0)
    eps = 1e-12
    corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    free = None
    for cx, cy in corners:
        if not np.any((np.abs(local[:, 0] - cx) <= eps)
                      & (np.abs(local[:, 1] - cy) <= eps)):
            free = (cx, cy)
            break
    if free is None:
        raise AssertionError("no point-free corner on a unit-diameter set")
    # reflect so the free corner becomes (0, 0)
    if free[0] == 1.0:
        local[:, 0] = 1.0 - local[:, 0]
    if free[1] == 1.0:
        local[:, 1] = 1.0 - local[:, 1]

    h = 0.5

    def removed(region, x, y):
        pts_out = {
            0: ((0.0, h), (h, h)),       # NW
            1: ((h, h), (h, 1.0)),       # NE
            2: ((0.0, 0.0), (h, 0.0)),   # SW
            3: ((h, h), (1.0, h)),       # SE
        }[region]
        return any(abs(x - px) <= eps and abs(y - py) <= eps
                   for px, py in pts_out)

    def members(x, y):
        out = []
        if x <= h and y >= h and not removed(0, x, y):
            out.append(0)
        if x >= h and y >= h and not removed(1, x, y):
            out.append(1)
        if x <= h and y <= h and not removed(2, x, y):
            out.append(2)
        if x >= h and y <= h and not removed(3, x, y):
            out.append(3)
        return out

    labels = []
    for x, y in local:
        regs = members(x, y)
        if not regs:
            raise AssertionError("quadrant assignment missed (%g, %g)" % (x, y))
        labels.append(regs[0])
    return labels


def _hex_core_rim(pts):
    """Inner hexagon core plus six rim pieces, each (1/2)-small at unit scale.

    For the enclosing hexagon with side midpoints m_i and vertices p_i, the
    core is the hull of the points q_i placed (sqrt(3)-1)/2 (times the width)
    from m_i toward the opposite midpoint; rim piece i is the hull of
    q_i, m_i, p_i, m_{i+1}, q_{i+1}.  Overlap goes to the lowest region index
    (core first), matching the proof's inclusive/exclusive boundary rules.
    """
    hexa = pal_hexagon(pts)
    w = hexa.width
    if w == 0.0:
        return [0] * len(pts)
    c = np.asarray(hexa.center)
    corners = hexa.corners()                       # p_0..p_5, ccw
    mids = np.array([(corners[i - 1] + corners[i]) / 2.0 for i in range(6)])
    toward = c - mids                              # midpoint -> center, length w/2
    q = mids + toward / (w / 2.0) * ((SQRT3 - 1.0) / 2.0 * w)

    # excluded boundary points keep each piece strictly small: the core
    # gives up the q_i, rim piece i gives up q_{i+1} and m_{i+1}
    regions = [(_ConvexRegion(q), list(q))]        # core, index 0
    for i in range(6):
        hull = np.array([q[i], mids[i], corners[i],
                         mids[(i + 1) % 6], q[(i + 1) % 6]])
        regions.append((_ConvexRegion(hull),
                        [q[(i + 1) % 6], mids[(i + 1) % 6]]))

    eps = 1e-12 * max(w, 1.0)
    labels = []
    for p in pts:
        hit = None
        slack_best, arg_best = math.inf, None
        for idx, (reg, excluded) in enumerate(regions):
            if any(math.hypot(p[0] - e[0], p[1] - e[1]) <= eps
                   for e in excluded):
                continue
            s = reg.violation(p)
            if s <= eps:
                hit = idx
                break
            if s < slack_best:
                slack_best, arg_best = s, idx
        if hit is None:
            # numeric sliver between region boundaries
            hit = arg_best
        labels.append(hit)
    return labels


class _ConvexRegion:
    """Closed convex polygon given by its ccw vertex loop."""

    def __init__(self, verts):
        self.verts = np.asarray(verts, dtype=float)
        v = self.verts
        nxt = np.roll(v, -1, axis=0)
        edges = nxt - v
        # inward normals for ccw ordering
        self.normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1)
        lens = np.linalg.norm(self.normals, axis=1)
        self.normals /= lens[:, None]
        self.offsets = (self.normals * v).sum(axis=1)

    def violation(self, p):
        """Max signed distance outside any edge; <= 0 means inside."""
        return float(np.max(self.offsets - self.normals @ np.asarray(p)))


# ---------------------------------------------------------------------------
# Coloring extraction


def extract_coloring(g, r, scheme):
    """Proper coloring from a realization via a unit-scale partition.

    The arrangement is scaled to unit diameter and partitioned; pieces are
    1-small at the original scale whenever the width is at most the scheme
    threshold, so no edge can be monochromatic.
    """
    ev = evaluate(g, r)
    if not ev.valid:
        raise PartitionPreconditionError("realization is invalid")
    thr = SCHEME_THRESHOLD[scheme] if scheme in SCHEME_THRESHOLD else None
    if thr is None:
        raise ParameterError("scheme must be 3, 4 or 7")
    if ev.width > thr + 1e-9:
        raise PartitionPreconditionError(
            "width %.12g exceeds scheme-%d threshold %.12g"
            % (ev.width, scheme, thr), threshold=thr)
    if ev.width == 0.0:
        return coloring_from_list([0] * g.n)
    labels = partition_unit(r.array() / ev.width, scheme)
    return _compact(labels, g.n)


def _compact(labels, n):
    seen = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return coloring_from_list(out if n else [])


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
    1, which forces adjacent vertices into distinct cells.
    """
    if r.norm != L2:
        raise ParameterError("tiling coloring is Euclidean only")
    ev = evaluate(g, r)
    if not ev.valid:
        raise PartitionPreconditionError("realization is invalid")
    d = ev.width
    if d == 0.0:
        return coloring_from_list([0] * g.n), 1
    t = tiling_parameter(d)
    s = d / (3.0 * t)
    hexa = pal_hexagon(r.array())
    c = np.asarray(hexa.center)
    alpha = hexa.orientation + math.pi / 6.0   # cell normals; corners of the
    # enclosure lie along these directions, t lattice steps from the center
    ua = np.array([math.cos(alpha), math.sin(alpha)])
    ub = np.array([math.cos(alpha + math.pi / 3.0),
                   math.sin(alpha + math.pi / 3.0)])
    step = SQRT3 * s
    basis = np.stack([ua * step, ub * step], axis=1)   # columns
    inv = np.linalg.inv(basis)

    cells = []
    for p in r.array():
        cell = _nearest_hex_cell(inv @ (p - c))
        if _hex_distance(cell) > t:
            raise PartitionPreconditionError(
                "point fell outside the %d designated cells"
                % tiling_color_cap(t))
        cells.append(cell)
    return _compact(cells, g.n), t


def _hex_distance(cell):
    i, j = cell
    return (abs(i) + abs(j) + abs(i + j)) // 2


def _nearest_hex_cell(frac):
    """Nearest tiling-cell center in axial coordinates, by cube rounding.

    With x = i, z = j and y = -x - z, round all three and recompute the one
    with the largest rounding error from the other two
    (https://www.redblobgames.com/grids/hexagons/#rounding).
    """
    x, z = float(frac[0]), float(frac[1])
    y = -x - z
    rx, ry, rz = round(x), round(y), round(z)
    dx, dy, dz = abs(rx - x), abs(ry - y), abs(rz - z)
    if dx > dy and dx > dz:
        rx = -ry - rz
    elif dz >= dy:
        rz = -rx - ry
    return rx, rz
