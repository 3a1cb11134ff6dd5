"""Plane geometry: lp norms, diameters and the regular-hexagon enclosure.

Points are (x, y) tuples or rows of an (n, 2) array; all arithmetic is
double precision with explicit verification tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import InternalConsistencyError, ParameterError

INF = float("inf")
SQRT3 = math.sqrt(3.0)
_TINY = np.finfo(float).tiny     # the least normal float


@dataclass(frozen=True)
class NormSpec:
    p: float = 2.0
    dim: int = 2

    def __post_init__(self):
        if not self.p >= 1:
            raise ParameterError("p must be >= 1, got %r" % (self.p,))
        if self.dim not in (1, 2):
            raise ParameterError("dim must be 1 or 2")


L2 = NormSpec(2.0, 2)
LINF = NormSpec(INF, 2)
LINE = NormSpec(2.0, 1)


def lp_lengths(diff, p):
    """Reduce a (..., dim) difference array to (...) lp lengths.  For p = 2
    the squared columns are added explicitly: numpy sums 1 or 2 elements as
    a + b too, and the adds cost a fraction of a reduction over the axis."""
    if p == 2.0:
        sq = [diff[..., k] * diff[..., k] for k in range(diff.shape[-1])]
        return np.sqrt(sum(sq[1:], sq[0]))
    d = np.abs(diff)
    if p == INF:
        return d.max(axis=-1)
    s = (d ** p).sum(axis=-1)
    lengths = np.power(s, 1.0 / p)
    low = s < _TINY
    if low.any():
        # the sum underflowed (3e-6 ** 64 is 0): scale those rows by their max
        m = d.max(axis=-1, keepdims=True)
        scaled = m[..., 0] * np.power(
            ((d / np.where(m > 0.0, m, 1.0)) ** p).sum(axis=-1), 1.0 / p)
        lengths = np.where(low, scaled, lengths)
    return lengths


def _points(pts, dim=2):
    """``pts`` as a float (k, dim) array; a flat one is a ParameterError."""
    arr = np.asarray(pts, dtype=float)
    if arr.shape == (0,):                   # an empty list: no points
        arr = arr.reshape(0, dim)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ParameterError("points must form a (k, %d) array, got shape %r"
                             % (dim, arr.shape))
    return arr


def distance(a, b, norm=L2):
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(lp_lengths(np.atleast_1d(diff), norm.p))


def edge_lengths(pts, edges, norm=L2):
    """Lengths of the index pairs in the (m, 2) array ``edges``.

    Row k is ``distance(pts[u], pts[v], norm)`` for ``(u, v) = edges[k]``,
    bit for bit.  For p not in {1, 2, inf} the final root is numpy's array
    ``power``; a scalar ``pow`` of the same sum may differ from it by 1 ulp.
    """
    pts = _points(pts, norm.dim)
    diff = np.take(pts, edges[:, 0], axis=0)
    diff -= np.take(pts, edges[:, 1], axis=0)
    return lp_lengths(diff, norm.p)


def convex_hull(pts):
    """Andrew's monotone chain over an (n, 2) array: the lower chain over
    the sort order, then the upper one over its reverse; ccw indices."""
    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    xy = pts.tolist()
    hull = []
    for chain in (order, order[::-1]):
        start = len(hull)
        for i in chain:
            while len(hull) > start + 1:
                (ox, oy), (ax, ay), (bx, by) = xy[hull[-2]], xy[hull[-1]], xy[i]
                if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) > 0:
                    break
                hull.pop()
            hull.append(i)
        del hull[-1:]               # each chain ends where the other starts
    return hull


def _diameter_calipers(pts):
    """Rotating calipers over the convex hull (Euclidean only)."""
    hull = convex_hull(pts)
    h = len(hull)
    hp = pts[hull]
    best, pair = -1.0, (hull[0], hull[0])
    j = 1 % h
    for i in range(h):
        ni = (i + 1) % h
        edge = hp[ni] - hp[i]
        while True:
            nj = (j + 1) % h
            step = hp[nj] - hp[j]
            if edge[0] * step[1] - edge[1] * step[0] > 0:
                j = nj
            else:
                break
        for k in (i, ni):
            d = float(np.hypot(*(hp[j] - hp[k])))
            if d > best:
                best, pair = d, (hull[k], hull[j])
    return best, (min(pair), max(pair))


def diameter(pts, norm=L2):
    """Max pairwise distance and one achieving index pair."""
    pts = _points(pts, norm.dim)
    n = len(pts)
    if n == 0:
        raise ParameterError("diameter of empty set")
    if norm.p == 2.0 and pts.shape[1] == 2 and n > 64:
        return _diameter_calipers(pts)
    if n > 64 and (norm.p == INF or norm.dim == 1):  # rows peak at extremes
        ext = pts[np.r_[pts.argmin(axis=0), pts.argmax(axis=0)]]
        i = int(np.argmax(lp_lengths(pts[:, None] - ext, norm.p).max(axis=1)))
        row = lp_lengths(pts[i] - pts, norm.p)
        j = int(np.argmax(row))
        return float(row[j]), (min(i, j), max(i, j))
    dm = lp_lengths(pts[:, None, :] - pts[None, :, :], norm.p)
    i, j = divmod(int(np.argmax(dm)), n)
    return float(dm[i, j]), (min(i, j), max(i, j))


# ---------------------------------------------------------------------------
# Regular hexagon enclosure


def _hex_directions(theta, count=3):
    """(count, 2) unit vectors at theta + k*pi/3 for k = 0..count-1."""
    return np.array([[math.cos(theta + k * math.pi / 3),
                      math.sin(theta + k * math.pi / 3)] for k in range(count)])


@dataclass(frozen=True)
class Hexagon:
    center: tuple
    orientation: float   # angle of one side-normal, radians
    width: float         # distance between opposite sides

    def containment_defect(self, pts):
        """Max signed distance of any point beyond the six half-planes."""
        pts = np.asarray(pts, dtype=float)
        rel = pts - np.asarray(self.center)
        proj = rel @ _hex_directions(self.orientation).T
        return float(np.max(np.abs(proj)) - self.width / 2.0)

    def corners(self):
        """The six vertices, ccw, starting between normals 0 and 1."""
        r = self.width / SQRT3
        return (np.asarray(self.center)
                + r * _hex_directions(self.orientation + math.pi / 6, 6))


def _slab_intervals(pts, theta, width):
    """Feasible center-projection interval per normal direction.

    For normal u the hexagon slab is [<c,u> - w/2, <c,u> + w/2]; it contains
    the point slab iff <c,u> lies in [max_p - w/2, min_p + w/2].
    """
    normals = _hex_directions(theta)
    proj = pts @ normals.T
    lo = proj.max(axis=0) - width / 2.0
    hi = proj.min(axis=0) + width / 2.0
    return lo, hi, normals


def _mismatch(pts, theta, width):
    """Signed distance of 0 from the interval I0 - I1 + I2.

    A regular hexagon of the given width and orientation containing the
    points exists iff some center projections t_k in I_k satisfy
    t0 - t1 + t2 = 0 (the three normals are linearly dependent).  The
    function is continuous in theta and flips sign under theta -> theta+60deg,
    so bisection finds a root.
    """
    lo, hi, _ = _slab_intervals(pts, theta, width)
    jlo = lo[0] - hi[1] + lo[2]
    jhi = hi[0] - lo[1] + hi[2]
    if jlo > 0:
        return jlo
    if jhi < 0:
        return jhi
    return 0.0


def pal_hexagon(pts):
    """Regular hexagon of width = diameter containing all points.

    Existence is guaranteed for every bounded plane set; the orientation is
    found by bisecting the slab-offset mismatch on [0, 60deg], then the width
    is enlarged by any residual containment defect.  That defect is rounding,
    a few ulps of the coordinates; a larger one is an InternalConsistencyError.
    """
    pts = _points(pts)
    width, _ = diameter(pts)
    if width == 0.0:
        return Hexagon((float(pts[0, 0]), float(pts[0, 1])), 0.0, 0.0)

    # probe 0, then 60deg, then midpoints: f(0) and f(60deg) have opposite
    # signs by the 60-degree antisymmetry, so f(0)'s sign steers the halving
    a, b = 0.0, math.pi / 3.0
    theta, up = a, None
    while True:
        f = _mismatch(pts, theta, width)
        if f == 0.0:
            break
        if up is None:
            theta, up = b, f > 0
            continue
        if theta < b:                       # a midpoint halves [a, b]
            a, b = (theta, b) if (f > 0) == up else (a, theta)
        theta = 0.5 * (a + b)
        if b - a < 1e-14:
            break

    lo, hi, normals = _slab_intervals(pts, theta, width)
    # choose center projections: s = t0 + t2 must meet I1 (t1 = s)
    slo, shi = lo[0] + lo[2], hi[0] + hi[2]
    s = min(max(0.5 * (max(slo, lo[1]) + min(shi, hi[1])), slo), shi)
    t1 = min(max(s, lo[1]), hi[1])
    t0 = min(max(s - lo[2], lo[0]), hi[0])
    # center from projections onto normals 0 and 1 (60 degrees apart)
    A = normals[:2]
    c = np.linalg.solve(A, np.array([t0, t1]))
    hexagon = Hexagon((float(c[0]), float(c[1])), theta, width)
    defect = hexagon.containment_defect(pts)
    if defect > 0:
        if defect > 1e-12 * max(width, float(np.abs(pts).max())):
            raise InternalConsistencyError(
                "hexagon enclosure failed to certify: defect %.3g at width "
                "%.12g" % (defect, width))
        hexagon = Hexagon(hexagon.center, theta, width + 2.0 * defect + 1e-15)
    return hexagon
