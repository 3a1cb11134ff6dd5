"""Norms, diameter computation, and the regular-hexagon enclosure."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planewidth import geometry
from planewidth.geometry import (
    INF, L2, LINE, LINF, NormSpec, convex_hull, diameter, distance,
    edge_lengths, lp_lengths, pal_hexagon,
)
from planewidth.graphs import InternalConsistencyError, ParameterError


def test_distance_examples():
    assert distance((0, 0), (1, 0)) == 1.0
    assert distance((0, 0), (1, 1), LINF) == 1.0
    assert distance((0, 0), (3, 4)) == 5.0
    assert distance((0, 0), (1, 1), NormSpec(1, 2)) == 2.0


def test_norm_validation():
    # input errors are ParameterErrors (ValueErrors), so the CLI exits 1
    for make in [lambda: NormSpec(0.5, 2), lambda: NormSpec(math.nan, 2),
                 lambda: NormSpec(-INF, 2), lambda: NormSpec(2, 3),
                 lambda: diameter(np.empty((0, 2))), lambda: pal_hexagon([])]:
        with pytest.raises(ParameterError):
            make()


#: coordinate differences from 1e-200 to 1e150 in magnitude, either sign,
#: and both zeros
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e, s: s * m * 10.0 ** e, st.floats(1.0, 9.99),
              st.integers(-200, 149), st.sampled_from([1.0, -1.0])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 2), st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.data())
def test_l2_lengths_match_the_axis_sum(dim, batch, data):
    """At p = 2 the explicit column adds give the bits of the reduction
    over the last axis, on the line and in the plane, for batches of 1 to
    3 axes."""
    shape = (*batch, dim)
    size = math.prod(shape)
    diff = np.array(data.draw(st.lists(_COORDS, min_size=size,
                                       max_size=size))).reshape(shape)
    got = lp_lengths(diff, 2.0)
    want = np.sqrt((diff * diff).sum(axis=-1))
    assert got.shape == want.shape == tuple(batch)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("call", [
    lambda pts: diameter(pts),
    lambda pts: pal_hexagon(pts),
    lambda pts: edge_lengths(pts, np.array([[0, 1], [1, 2]])),
], ids=["diameter", "pal_hexagon", "edge_lengths"])
def test_flat_point_array_is_a_parameter_error(call):
    # three coordinates are not three points: no IndexError, no one length
    with pytest.raises(ParameterError, match=r"\(k, 2\) array"):
        call([0.0, 2.0, 5.0])


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    norms = [NormSpec(p, 2) for p in (1, 1.5, 2, 3)] + [LINF]
    for _ in range(200):
        a, b, c = rng.uniform(-5, 5, size=(3, 2))
        for nm in norms:
            dab = distance(a, b, nm)
            assert dab == pytest.approx(distance(b, a, nm), abs=1e-12)
            assert dab <= distance(a, c, nm) + distance(c, b, nm) + 1e-9


def test_diameter_examples():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    w, pair = diameter(np.array(square, dtype=float))
    assert w == pytest.approx(math.sqrt(2), abs=1e-12)
    assert pair[0] != pair[1]
    # unit-side regular pentagon has diameter the golden ratio
    r = 1.0 / (2.0 * math.sin(math.pi / 5.0))
    pent = [(r * math.cos(2 * math.pi * k / 5), r * math.sin(2 * math.pi * k / 5))
            for k in range(5)]
    w, _ = diameter(np.array(pent))
    assert w == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    w, _ = diameter(np.array([[0.3, 0.7]]))
    assert w == 0.0


@pytest.mark.parametrize("norm", [LINF, LINE, NormSpec(3.0, 2)],
                         ids=["linf", "line", "l3"])
def test_diameter_of_one_point(norm):
    # the pairwise path, with no special case for n = 1; warnings are errors
    assert diameter(np.full((1, norm.dim), 0.3), norm) == (0.0, (0, 0))


def test_diameter_linf():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 0.5]])
    w, _ = diameter(pts, LINF)
    assert w == 2.0


def test_diameter_hull_scan_matches_exhaustive():
    rng = np.random.default_rng(123)
    for trial in range(30):
        n = int(rng.integers(70, 200))
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
        fast, _ = diameter(pts)
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1))
        slow = float(d.max())
        assert fast == pytest.approx(slow, abs=1e-12)


@pytest.mark.parametrize("pts, width", [
    (np.full((70, 2), 0.25), 0.0),
    (np.outer(np.arange(70)[::-1], [3.0, 4.0]), 345.0),
    (np.repeat([[4.0, -2.0], [1.0, 2.0]], [30, 40], axis=0), 5.0),
], ids=["coincident", "collinear", "two-positions"])
def test_calipers_on_hulls_of_one_or_two_points(pts, width):
    # over 64 points, so the calipers run; the lexicographically first
    # point has the larger index in the last two sets
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, (i, j) = diameter(pts)
    assert w == width and i <= j
    assert math.hypot(*(pts[j] - pts[i])) == width


def test_diameter_pair_is_sorted():
    rng = np.random.default_rng(321)
    for n in list(range(2, 80, 3)) + [120, 200]:    # pairwise and calipers
        for pts in (rng.normal(size=(n, 2)),
                    np.outer(rng.permutation(n), [1.0, -2.0]),
                    rng.normal(size=(3, 2))[rng.integers(0, 3, n)]):
            _, (i, j) = diameter(pts)
            assert i <= j, (n, i, j)


def _dense_diameter(pts, p):
    """The pairwise pass over all n * n pairs: the largest length and the
    first pair reaching it in row-major order, sorted."""
    dm = geometry.lp_lengths(pts[:, None, :] - pts[None, :, :], p)
    i, j = divmod(int(np.argmax(dm)), len(pts))
    return float(dm[i, j]), (min(i, j), max(i, j))


@pytest.mark.parametrize("norm", [
    LINF, NormSpec(INF, 1), LINE, NormSpec(1.0, 1), NormSpec(3.0, 1),
], ids=["linf", "linf-1d", "line", "l1-1d", "l3-1d"])
def test_diameter_over_64_points_matches_dense_pass(norm):
    # above 64 points the line and the max norm find the farthest row
    # through the coordinate extremes; the width bits and the pair must be
    # those of the dense pass
    rng = np.random.default_rng(6401)
    for trial in range(120):
        n = int(rng.integers(65, 201))
        shape = (n, norm.dim)
        # the last set has two lengths that rounding ties at 2**53 + 4, the
        # first of them from a point that is no coordinate extreme
        tied = np.zeros(shape)
        tied[:3] = np.array([[-1.0], [2.0**53 + 2], [2.0**53 + 4]])
        pts = [rng.normal(size=shape) * rng.uniform(0.5, 3.0),
               rng.integers(0, 4, size=shape).astype(float),  # heavy ties
               rng.integers(-3, 3, size=shape) * 0.5 + 1e16,
               rng.normal(size=shape) * 1e3 + rng.uniform(1e15, 1e16),
               np.full(shape, -2.5), tied][trial % 6]
        w, pair = diameter(pts, norm)
        ref_w, ref_pair = _dense_diameter(pts, norm.p)
        assert (w.hex(), pair) == (ref_w.hex(), ref_pair), (trial, n)
        assert all(isinstance(k, int) for k in pair)


def test_diameter_of_100000_points_on_the_line_and_in_the_max_norm():
    # linear memory: the dense pass would need tens of gigabytes here, so
    # 5,000 points must first stay far below its 600 MB
    rng = np.random.default_rng(64)
    for n, limit in [(5_000, 5e6), (100_000, 1e8)]:
        for norm in (LINE, LINF):
            pts = rng.normal(size=(n, norm.dim))
            tracemalloc.start()
            t0 = time.perf_counter()
            w, (i, j) = diameter(pts, norm)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < limit and elapsed < 1.0, (n, norm, peak, elapsed)
            spans = pts.max(axis=0) - pts.min(axis=0)
            c = int(np.argmax(spans))
            assert w == spans[c]
            assert (i, j) == tuple(sorted((int(pts[:, c].argmin()),
                                           int(pts[:, c].argmax()))))


def test_convex_hull_square():
    pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1]], dtype=float)
    hull = convex_hull(pts)
    assert len(hull) == 4


def test_pal_hexagon_triangle():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    hexa = pal_hexagon(tri)
    assert hexa.width == pytest.approx(1.0, abs=1e-9)
    assert hexa.containment_defect(tri) <= 1e-9


def test_pal_hexagon_single_point():
    hexa = pal_hexagon(np.array([[2.0, -3.0]]))
    assert hexa.width == 0.0
    assert np.allclose(hexa.center, [2.0, -3.0])


def test_pal_hexagon_random_containment():
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(3, 1000))
        pts = rng.normal(size=(n, 2))
        pts = pts / np.maximum(np.linalg.norm(pts, axis=1)[:, None], 1.0)
        pts = pts * rng.uniform(0.2, 2.0)
        w, _ = diameter(pts)
        hexa = pal_hexagon(pts)
        assert hexa.width <= w + 1e-9
        assert hexa.containment_defect(pts) <= 1e-9


def test_pal_hexagon_enclosure_check_fires(monkeypatch):
    # a mismatch that never changes sign leaves the bisection at a wrong
    # orientation; the hexagon must not silently grow past the diameter
    monkeypatch.setattr(geometry, "_mismatch", lambda *args: 1.0)
    a = 0.3 + 2.0 * math.pi / 3.0 * np.arange(3)
    pts = np.stack([np.cos(a), np.sin(a)], axis=1) / math.sqrt(3)
    with pytest.raises(InternalConsistencyError, match="failed to certify"):
        pal_hexagon(pts)


def test_pal_hexagon_geometry_consistency():
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(40, 2))
    hexa = pal_hexagon(pts)
    corners = hexa.corners()
    assert len(corners) == 6
    # opposite sides at distance `width`: circumradius is width / sqrt(3)
    for c in corners:
        assert np.hypot(*(np.asarray(c) - hexa.center)) == pytest.approx(
            hexa.width / math.sqrt(3), abs=1e-9)
