"""Output checks for the benchmark, written apart from the package.

Nothing here imports ``planewidth``: every constant comes from its formula
and every geometric fact is recomputed with numpy from the raw points the
program returned.  Each checker returns a list of problems (empty when the
output is correct), so a caller can tell a fault it expects from one it
does not.

Run ``python3 bench/checks.py`` to execute the self-test, which shows that
each checker rejects a broken output and accepts a correct one.
"""

from __future__ import annotations

import math

import numpy as np

#: Edge-length tolerance that ``evaluate`` and ``planewidth verify`` state.
EDGE_TOL = 1e-9
#: Relative tolerance when a reported width is compared with the diameter.
WIDTH_RTOL = 1e-12

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
PACKING = math.sqrt(2.0 * SQRT3 / math.pi)      # width ~ PACKING * sqrt(n)


def _unit_polygon_radius(k):
    """Circumradius of the regular k-gon with unit sides."""
    return 1.0 / (2.0 * math.sin(math.pi / k))


#: Optimal widths of n mutually unit-spread plane points (Bateman-Erdos).
TABLE = {
    2: 1.0,
    3: 1.0,
    4: SQRT2,                                               # unit square
    5: 2.0 * _unit_polygon_radius(5) * math.sin(2.0 * math.pi / 5.0),
    6: 2.0 * math.sin(2.0 * math.pi / 5.0),                 # pentagon + centre
    7: 2.0,                                                 # hexagon + centre
    8: 2.0 * _unit_polygon_radius(7) * math.sin(3.0 * math.pi / 7.0),
}


def chi_band(chi):
    """The paper's plane-width band (low, high) for chromatic number chi."""
    if chi <= 3:
        return 1.0, 1.0
    if chi == 4:
        return 2.0 / SQRT3, SQRT2
    if chi <= 7:
        return SQRT2, 2.0
    return 2.0, math.inf


def linf_kn_width(n):
    """Max-norm plane-width of K_n: the ceil(sqrt(n)) x ceil(sqrt(n)) grid."""
    return math.ceil(math.sqrt(n)) - 1.0


def tiling_cap(width):
    """Colour budget of the hexagonal tiling colouring at this width."""
    t = math.floor(2.0 * width / 3.0) + 1
    return 3 * t * t + 3 * t + 1


def _lengths(pts, u, v, p):
    diff = np.abs(pts[u] - pts[v])
    if p == math.inf:
        return diff.max(axis=1)
    return np.sqrt((diff * diff).sum(axis=1))


def diameter(pts, p=2.0):
    """Largest pairwise distance, by brute force over row blocks."""
    pts = np.asarray(pts, dtype=float)
    best = 0.0
    for start in range(0, len(pts), 256):
        diff = np.abs(pts[start:start + 256, None, :] - pts[None, :, :])
        if p == math.inf:
            d = diff.max(axis=2)
        else:
            d = np.sqrt((diff * diff).sum(axis=2))
        best = max(best, float(d.max()))
    return best


def witness_problems(points, edges, width, p=2.0):
    """A witness must have every edge >= 1 - EDGE_TOL and diameter = width."""
    pts = np.asarray(points, dtype=float)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    out = []
    if not np.all(np.isfinite(pts)):
        return ["non-finite coordinate"]
    if len(edges):
        lengths = _lengths(pts, edges[:, 0], edges[:, 1], p)
        i = int(np.argmin(lengths))
        if lengths[i] < 1.0 - EDGE_TOL:
            out.append("edge (%d, %d) has length %.17g < 1 - %g"
                       % (edges[i, 0], edges[i, 1], lengths[i], EDGE_TOL))
    d = diameter(pts, p)
    if abs(d - width) > WIDTH_RTOL * max(1.0, d):
        out.append("reported width %.17g != diameter %.17g" % (width, d))
    return out


def interval_problems(lower, upper, kn=None, chi=None):
    """lower <= upper; K_n (n <= 8) brackets its table width; chi band met."""
    out = []
    if not lower <= upper:
        out.append("lower %.17g > upper %.17g" % (lower, upper))
    if kn is not None and kn in TABLE:
        w = TABLE[kn]
        if not lower - EDGE_TOL <= w <= upper + EDGE_TOL:
            out.append("[%.17g, %.17g] misses the K_%d width %.17g"
                       % (lower, upper, kn, w))
    if chi is not None:
        lo, hi = chi_band(chi)
        if max(lower, lo) > min(upper, hi) + EDGE_TOL:
            out.append("[%.17g, %.17g] misses the chi = %d band [%.17g, %.17g]"
                       % (lower, upper, chi, lo, hi))
    return out


def range_problems(value, lo, hi, what):
    if lo <= value <= hi:
        return []
    return ["%s %.17g outside [%.17g, %.17g]" % (what, value, lo, hi)]


def coloring_problems(colors, edges, cap):
    """A colouring must be proper and use at most cap colours."""
    colors = np.asarray(colors, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    out = []
    same = np.nonzero(colors[edges[:, 0]] == colors[edges[:, 1]])[0]
    if len(same):
        u, v = edges[same[0]]
        out.append("monochromatic edge (%d, %d)" % (u, v))
    k = len(np.unique(colors))
    if k > cap:
        out.append("%d colours exceed the cap %d" % (k, cap))
    return out


def self_test():
    """Each checker accepts a correct output and rejects a broken one."""
    tri = [(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0)]
    k3 = [(0, 1), (0, 2), (1, 2)]
    cases = [
        ("correct triangle", witness_problems(tri, k3, 1.0), False),
        ("shortened edge",
         witness_problems([(0.0, 0.0), (0.999, 0.0), (0.5, 0.9)], k3, 1.0),
         True),
        ("proper colouring", coloring_problems([0, 1, 2], k3, 3), False),
        ("monochromatic edge", coloring_problems([0, 1, 1], k3, 3), True),
        ("K_4 interval", interval_problems(SQRT2, SQRT2, kn=4, chi=4), False),
        ("lower > upper", interval_problems(1.5, 1.4), True),
        ("oracle width at sqrt(2)",
         range_problems(SQRT2, SQRT2 - EDGE_TOL, SQRT2 + 0.6, "oracle"),
         False),
        ("oracle width below sqrt(2)",
         range_problems(1.40, SQRT2 - EDGE_TOL, SQRT2 + 0.6, "oracle"), True),
    ]
    bad = [name for name, problems, want in cases if bool(problems) != want]
    return bad


if __name__ == "__main__":
    failed = self_test()
    if failed:
        raise SystemExit("self-test failed: %s" % ", ".join(failed))
    print("self-test passed: every checker rejects its broken output")
