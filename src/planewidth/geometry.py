"""Plane geometry: lp norms, diameters and the regular-hexagon enclosure.

Points are (x, y) tuples or rows of an (n, 2) array; all arithmetic is
double precision with explicit verification tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = float("inf")


@dataclass(frozen=True)
class NormSpec:
    p: float = 2.0
    dim: int = 2

    def __post_init__(self):
        if self.p != INF and self.p < 1:
            raise ValueError("p must be >= 1")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")


L2 = NormSpec(2.0, 2)
LINF = NormSpec(INF, 2)
LINE = NormSpec(2.0, 1)


def _lengths(diff, norm):
    """Reduce a (..., dim) difference array to (...) lengths under norm."""
    if norm.p == 2.0:
        return np.sqrt((diff * diff).sum(axis=-1))
    d = np.abs(diff)
    if norm.p == INF:
        return d.max(axis=-1)
    if norm.p == 1.0:
        return d.sum(axis=-1)
    return np.power((d ** norm.p).sum(axis=-1), 1.0 / norm.p)


def _as_points(pts):
    pts = np.asarray(pts, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


def distance(a, b, norm=L2):
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(_lengths(np.atleast_1d(diff), norm))


def pairwise_distances(pts, norm=L2):
    """Full (n, n) distance matrix."""
    pts = _as_points(pts)
    return _lengths(pts[:, None, :] - pts[None, :, :], norm)


def edge_lengths(pts, edges, norm=L2):
    """Lengths of the index pairs in the (m, 2) array ``edges``.

    Row k is ``distance(pts[u], pts[v], norm)`` for ``(u, v) = edges[k]``,
    bit for bit.  For p not in {1, 2, inf} the final root is numpy's array
    ``power``; a scalar ``pow`` of the same sum may differ from it by 1 ulp.
    """
    pts = _as_points(pts)
    return _lengths(pts[edges[:, 0]] - pts[edges[:, 1]], norm)


def convex_hull(pts):
    """Andrew's monotone chain; returns hull vertex indices in ccw order."""
    pts = np.asarray(pts, dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))

    def cross(o, a, b):
        return ((pts[a, 0] - pts[o, 0]) * (pts[b, 1] - pts[o, 1])
                - (pts[a, 1] - pts[o, 1]) * (pts[b, 0] - pts[o, 0]))

    lower = []
    for i in order:
        while len(lower) > 1 and cross(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper = []
    for i in order[::-1]:
        while len(upper) > 1 and cross(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _diameter_calipers(pts):
    """Rotating calipers over the convex hull (Euclidean only)."""
    hull = convex_hull(pts)
    h = len(hull)
    if h == 1:
        return 0.0, (hull[0], hull[0])
    if h == 2:
        return distance(pts[hull[0]], pts[hull[1]]), (hull[0], hull[1])
    hp = np.asarray(pts, dtype=float)[hull]
    best, pair = -1.0, (hull[0], hull[0])
    j = 1
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
    pts = _as_points(pts)
    n = len(pts)
    if n == 0:
        raise ValueError("diameter of empty set")
    if n == 1:
        return 0.0, (0, 0)
    if norm.p == 2.0 and pts.shape[1] == 2 and n > 64:
        return _diameter_calipers(pts)
    dm = pairwise_distances(pts, norm)
    flat = int(np.argmax(dm))
    i, j = divmod(flat, n)
    return float(dm[i, j]), (min(i, j), max(i, j))


# ---------------------------------------------------------------------------
# Regular hexagon enclosure


@dataclass(frozen=True)
class Hexagon:
    center: tuple
    orientation: float   # angle of one side-normal, radians
    width: float         # distance between opposite sides

    def normals(self):
        t = self.orientation
        return np.array([[math.cos(t + k * math.pi / 3),
                          math.sin(t + k * math.pi / 3)] for k in range(3)])

    def containment_defect(self, pts):
        """Max signed distance of any point beyond the six half-planes."""
        pts = np.asarray(pts, dtype=float)
        rel = pts - np.asarray(self.center)
        proj = rel @ self.normals().T
        return float(np.max(np.abs(proj)) - self.width / 2.0)

    def contains(self, pts, tol=1e-9):
        return self.containment_defect(pts) <= tol

    def corners(self):
        """The six vertices, ccw, starting between normals 0 and 1."""
        r = self.width / math.sqrt(3.0)
        t = self.orientation
        return np.array([[self.center[0] + r * math.cos(t + math.pi / 6 + k * math.pi / 3),
                          self.center[1] + r * math.sin(t + math.pi / 6 + k * math.pi / 3)]
                         for k in range(6)])


def _slab_intervals(pts, theta, width):
    """Feasible center-projection interval per normal direction.

    For normal u the hexagon slab is [<c,u> - w/2, <c,u> + w/2]; it contains
    the point slab iff <c,u> lies in [max_p - w/2, min_p + w/2].
    """
    normals = np.array([[math.cos(theta + k * math.pi / 3),
                         math.sin(theta + k * math.pi / 3)] for k in range(3)])
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


def pal_hexagon(pts, tol=1e-9):
    """Regular hexagon of width = diameter containing all points.

    Existence is guaranteed for every bounded plane set; the orientation is
    found by bisecting the slab-offset mismatch on [0, 60deg], then the width
    is enlarged by any residual containment defect (at most ~1e-12).
    """
    pts = _as_points(pts)
    if len(pts) == 0:
        raise ValueError("empty point set")
    if len(pts) == 1:
        return Hexagon((float(pts[0, 0]), float(pts[0, 1])), 0.0, 0.0)
    width, _ = diameter(pts)
    if width == 0.0:
        return Hexagon((float(pts[0, 0]), float(pts[0, 1])), 0.0, 0.0)

    a, b = 0.0, math.pi / 3.0
    fa = _mismatch(pts, a, width)
    if fa == 0.0:
        theta = a
    else:
        fb = _mismatch(pts, b, width)
        if fb == 0.0:
            theta = b
        else:
            # fa and fb have opposite signs by the 60-degree antisymmetry
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = _mismatch(pts, mid, width)
                if fm == 0.0:
                    a = b = mid
                    break
                if (fm > 0) == (fa > 0):
                    a, fa = mid, fm
                else:
                    b = mid
                if b - a < 1e-14:
                    break
            theta = 0.5 * (a + b)

    lo, hi, normals = _slab_intervals(pts, theta, width)
    # choose center projections: s = t0 + t2 must meet I1 (t1 = s)
    slo, shi = lo[0] + lo[2], hi[0] + hi[2]
    s = min(max(0.5 * (max(slo, lo[1]) + min(shi, hi[1])), slo), shi)
    t1 = min(max(s, lo[1]), hi[1])
    t0 = min(max(s - lo[2], lo[0]), hi[0])
    t2 = s - t0
    # center from projections onto normals 0 and 1 (60 degrees apart)
    A = normals[:2]
    c = np.linalg.solve(A, np.array([t0, t1]))
    hexagon = Hexagon((float(c[0]), float(c[1])), theta, width)
    defect = hexagon.containment_defect(pts)
    if defect > 0:
        hexagon = Hexagon(hexagon.center, theta, width + 2.0 * defect + 1e-15)
        if hexagon.width > width + max(tol, 2.0 * defect + 1e-12):
            raise AssertionError("hexagon enclosure failed to certify")
    return hexagon
