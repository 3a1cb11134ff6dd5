"""Geometric partitions of unit-diameter sets and tiling colorings."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from planewidth import partition
from planewidth.coloring import check_proper, chromatic_number
from planewidth.geometry import Hexagon, diameter, edge_lengths, pal_hexagon
from planewidth.graphs import CertificateError, ParameterError, complete, \
    cycle, graph_from_edges, odd_wheel
from planewidth.partition import (
    SCHEME_DELTA, SCHEME_THRESHOLD, _nearest_hex_cells, extract_coloring,
    partition_unit, tiling_color_cap, tiling_coloring, tiling_parameter,
)
from planewidth.realization import (
    Realization, evaluate, known_complete_arrangement,
    lattice_complete_arrangement, low_dim_realization,
)

from conftest import random_graph, random_unit_diameter_points

DELTAS = {3: math.sqrt(3) / 2, 4: math.sqrt(2) / 2, 7: 0.5}


def check_partition(pts, scheme):
    labels = partition_unit(pts, scheme)
    assert len(labels) == len(pts)
    assert all(0 <= l < scheme for l in labels)
    delta = DELTAS[scheme]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if labels[i] == labels[j]:
                d = float(np.hypot(*(pts[i] - pts[j])))
                assert d < delta * (1 + 1e-9), (scheme, i, j, d)
    return labels


def test_scheme_constants():
    for s in (3, 4, 7):
        assert SCHEME_DELTA[s] == pytest.approx(DELTAS[s], abs=1e-15)
    assert SCHEME_THRESHOLD[3] == pytest.approx(2 / math.sqrt(3), abs=1e-15)
    assert SCHEME_THRESHOLD[4] == pytest.approx(math.sqrt(2), abs=1e-15)
    assert SCHEME_THRESHOLD[7] == 2.0


def test_partition_triangle_scheme3():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    labels = check_partition(tri, 3)
    assert len(set(labels)) == 3


def test_partition_single_point():
    for scheme in (3, 4, 7):
        assert partition_unit(np.array([[0.2, -0.1]]), scheme) == [0]


def test_partition_rejects_flat_points():
    with pytest.raises(ParameterError, match=r"\(k, 2\) array"):
        partition_unit([0.2, -0.1], 3)
    assert partition_unit([], 3) == []


def test_partition_rejects_wide_input():
    pts = np.array([[0.0, 0.0], [1.5, 0.0]])
    with pytest.raises(CertificateError):
        partition_unit(pts, 3)
    with pytest.raises(ValueError):
        partition_unit(np.zeros((1, 2)), 5)


def test_partition_random_smallness():
    rng = np.random.default_rng(31)
    for scheme in (3, 4, 7):
        for _ in range(120):
            pts = random_unit_diameter_points(rng, int(rng.integers(2, 25)))
            check_partition(pts, scheme)


def test_partition_boundary_points():
    # points exactly on cut lines must still receive exactly one label each
    sq = np.array([[0.0, 0.0], [0.5, 0.5], [0.5, 0.0], [0.0, 0.5],
                   [1.0, 0.5], [0.5, 1.0], [1.0, 1.0]]) / math.sqrt(2)
    for scheme in (3, 4, 7):
        check_partition(sq, scheme)


@pytest.mark.parametrize("k", [4, 8, 12])
def test_scheme4_regular_polygons(k):
    """Radius-1/2 polygons put a vertex an ulp past the centre line after
    the shift; it must still land in exactly one quadrant."""
    a = np.arange(k) * 2 * math.pi / k
    check_partition(0.5 * np.stack([np.cos(a), np.sin(a)], axis=1), 4)


def hexagon_frames(count, seed=77):
    """Seeded enclosing hexagons (width 1 or below, any orientation) with
    their center c, side midpoints m_i and core vertices q_i."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        w = 1.0 if k % 2 == 0 else float(rng.uniform(0.3, 1.0))
        hexa = Hexagon(tuple(rng.uniform(-2.0, 2.0, 2).tolist()),
                       float(rng.uniform(0.0, math.pi / 3)), w)
        corners = hexa.corners()
        c = np.asarray(hexa.center)
        m = (np.roll(corners, 1, axis=0) + corners) / 2.0
        yield hexa, c, m, m + (math.sqrt(3) - 1.0) * (c - m)


def partition_in(monkeypatch, hexa, pts, scheme):
    # pin the enclosing hexagon the points were built from
    assert hexa.containment_defect(pts) <= 1e-9
    monkeypatch.setattr(partition, "pal_hexagon", lambda _: hexa)
    return check_partition(pts, scheme)


def test_scheme7_core_rim_boundaries_and_excluded_points(monkeypatch):
    t = np.array([0.25, 0.5, 0.75])[:, None, None]
    i = np.arange(6)
    for hexa, c, m, q in hexagon_frames(40):
        radial = (q + t * (m - q)).reshape(-1, 2)     # rims i-1 and i meet
        edge = (q + t * (np.roll(q, -1, axis=0) - q)).reshape(-1, 2)
        pts = np.vstack([m, q, radial, edge])         # edge: core meets rim i
        labels = partition_in(monkeypatch, hexa, pts, 7)
        # rim i-1 gives up m_i and q_i, the core gives up q_i: both go to
        # rim i (label i+1); shared boundaries go to the lower index
        expected = np.concatenate([1 + i, 1 + i,
                                   np.tile(1 + np.minimum(i, (i - 1) % 6), 3),
                                   np.zeros(18, dtype=int)])
        assert labels == expected.tolist()


def test_scheme3_points_on_sector_cut_lines(monkeypatch):
    t = np.array([0.25, 0.5, 0.75])[:, None, None]
    for hexa, c, m, _ in hexagon_frames(40):
        # the cuts run from the center to the midpoints of sides 0, 2 and 4
        cut = (c + t * (m[[0, 2, 4]] - c)).reshape(-1, 2)
        labels = partition_in(monkeypatch, hexa, np.vstack([m, cut, c]), 3)
        assert labels[-1] == 0                        # the center: piece 0


def test_extract_coloring_examples():
    k3 = complete(3)
    c = extract_coloring(k3, known_complete_arrangement(3), 3)
    assert c.k == 3 and check_proper(k3, c) is None

    k4 = complete(4)
    c = extract_coloring(k4, known_complete_arrangement(4), 4)
    assert c.k == 4 and check_proper(k4, c) is None

    k7 = complete(7)
    c = extract_coloring(k7, known_complete_arrangement(7), 7)
    assert c.k == 7 and check_proper(k7, c) is None


def test_extract_coloring_threshold_errors():
    k4 = complete(4)
    r4 = known_complete_arrangement(4)         # width sqrt(2) > 2/sqrt(3)
    with pytest.raises(CertificateError) as ei:         # the CLI's exit 2
        extract_coloring(k4, r4, 3)
    assert str(ei.value) == ("width %.12g exceeds scheme-3 threshold %.12g"
                             % (math.sqrt(2), 2 / math.sqrt(3)))
    k8 = complete(8)
    with pytest.raises(CertificateError):
        extract_coloring(k8, known_complete_arrangement(8), 7)


@pytest.mark.parametrize("scheme", [3, 4, 7, "tiling"])
@pytest.mark.parametrize("method", ["linf-grid", "line"])
def test_coloring_from_non_euclidean_realization_is_an_input_error(method,
                                                                    scheme):
    # valid max-norm and line realizations of W_5 are no plane sets
    g = odd_wheel(5)
    r = low_dim_realization(g, chromatic_number(g).coloring, method)
    assert evaluate(g, r).valid
    with pytest.raises(ParameterError, match="Euclidean only$"):
        if scheme == "tiling":
            tiling_coloring(g, r)
        else:
            extract_coloring(g, r, scheme)


def test_extract_coloring_random_proper():
    rng = np.random.default_rng(55)
    done = 0
    while done < 60:
        n = int(rng.integers(4, 12))
        g = random_graph(rng, n, 0.3)
        pts = rng.uniform(0, 1.8, size=(n, 2))
        r = Realization(pts)
        ev = evaluate(g, r)
        if not ev.valid or ev.width > 2.0:
            continue
        scheme = 7 if ev.width > math.sqrt(2) else (
            4 if ev.width > 2 / math.sqrt(3) else 3)
        c = extract_coloring(g, r, scheme)
        assert check_proper(g, c) is None
        assert c.k <= scheme
        done += 1


def test_tiling_parameter_and_cap():
    assert tiling_parameter(2.0) == 2
    assert tiling_color_cap(2) == 19
    assert tiling_parameter(1.0) == 1
    assert tiling_color_cap(1) == 7
    assert tiling_parameter(2.9) == 2
    assert tiling_parameter(1.4) == 1
    assert tiling_parameter(3.0) == 3


def test_tiling_coloring_triangle():
    g = complete(3)
    c, t = tiling_coloring(g, known_complete_arrangement(3))
    assert t == 1
    assert c.k <= 7
    assert check_proper(g, c) is None


def test_tiling_coloring_width_two():
    g = complete(7)
    c, t = tiling_coloring(g, known_complete_arrangement(7))
    assert t == 2
    assert c.k <= 19
    assert check_proper(g, c) is None


def test_tiling_coloring_random():
    rng = np.random.default_rng(13)
    done = 0
    while done < 40:
        n = int(rng.integers(3, 10))
        g = random_graph(rng, n, 0.4)
        if g.m == 0:
            continue
        r = Realization(rng.uniform(0, 3, size=(n, 2)))
        ev = evaluate(g, r)
        if not ev.valid or ev.width == 0:
            continue
        c, t = tiling_coloring(g, r)
        assert check_proper(g, c) is None
        assert t == tiling_parameter(ev.width)
        assert c.k <= tiling_color_cap(t)
        done += 1


def test_tiling_coloring_large_width_count():
    # quadratic color budget at large width: count < ((2/sqrt(3)+0.1) d)^2
    r = lattice_complete_arrangement(2600)
    pts = r.coords
    w, _ = diameter(pts)
    assert w >= 50.0
    g = cycle(2600)
    c, t = tiling_coloring(g, r)
    assert check_proper(g, c) is None
    assert c.k <= tiling_color_cap(t)
    assert tiling_color_cap(t) < ((2 / math.sqrt(3) + 0.1) * w) ** 2


def test_tiling_coloring_far_apart_edge():
    # the far cell sits about 1.15e20 steps out, past int64
    g = complete(2)
    c, _ = tiling_coloring(g, Realization([[0.0, 0.0], [1e20, 0.0]]))
    assert c.colors[0] != c.colors[1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.floats(-3.0, 25.0), st.integers(0, 2 ** 32 - 1))
def test_tiling_coloring_returns_only_proper_colorings(n, exponent, seed):
    # points at least 1 apart are adjacent at random, so the realization is
    # valid; a refusal is sound, an improper coloring is not
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, 2)) * 10.0 ** exponent
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    far = edge_lengths(pts, pairs) >= 1.0
    g = graph_from_edges(n, pairs[far & (rng.random(len(pairs)) < 0.6)])
    try:
        c, _ = tiling_coloring(g, Realization(pts))
    except CertificateError:
        # only where cell coordinates lose whole cells to rounding
        assert exponent > 14
        return
    assert check_proper(g, c) is None


def test_tiling_zero_width_single_cell():
    g = graph_from_edges(2, [])
    r = Realization(((0.5, 0.5), (0.5, 0.5)))
    c, t = tiling_coloring(g, r)
    assert c.k == 1 and t == 1


@pytest.mark.parametrize("scheme", [3, 4, 7])
def test_extract_coloring_zero_width(scheme):
    # coincident points, width 0, go unscaled into one piece
    for n in (0, 1, 3):
        r = Realization(np.full((n, 2), 0.25))
        c = extract_coloring(graph_from_edges(n, []), r, scheme)
        assert c.colors == (0,) * n


# columns: the unit cell-center steps of the tiling, 60 degrees apart
HEX_BASIS = np.array([[1.0, 0.5], [0.0, math.sqrt(3) / 2]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
def test_nearest_hex_cell_matches_brute_force(i, j):
    frac = np.array([i, j])
    cells = [(a, b) for a in range(math.floor(i) - 2, math.floor(i) + 4)
             for b in range(math.floor(j) - 2, math.floor(j) + 4)]
    dist = sorted((float(np.sum((HEX_BASIS @ (frac - cell)) ** 2)), cell)
                  for cell in cells)
    assume(dist[1][0] - dist[0][0] > 1e-9)          # no tie for nearest
    assert tuple(_nearest_hex_cells(frac[None])[0].tolist()) == dist[0][1]


# ---------------------------------------------------------------------------
# Per-point reference: the partition and tiling rules one point at a time,
# as they were written before the array form.  Labels and cells must match.


def reference_sectors(pts):
    hexa = pal_hexagon(pts)
    labels = []
    for p in pts:
        rel = p - np.asarray(hexa.center)
        if rel[0] == 0.0 and rel[1] == 0.0:
            labels.append(0)
            continue
        ang = (math.atan2(rel[1], rel[0]) - hexa.orientation) % (2 * math.pi)
        labels.append(int(ang // (2 * math.pi / 3)) % 3)
    return labels


def reference_quadrants(pts):
    local = pts - pts.min(axis=0)
    side = float(local.max(initial=0.0))
    local = np.clip(local / side if side > 1.0 else local, 0.0, 1.0)
    eps, h = 1e-12, 0.5
    corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    fx, fy = next(c for c in corners if not np.any(
        (np.abs(local[:, 0] - c[0]) <= eps) & (np.abs(local[:, 1] - c[1]) <= eps)))
    if fx == 1.0:
        local[:, 0] = 1.0 - local[:, 0]
    if fy == 1.0:
        local[:, 1] = 1.0 - local[:, 1]
    removed = [((0.0, h), (h, h)), ((h, h), (h, 1.0)),
               ((0.0, 0.0), (h, 0.0)), ((h, h), (1.0, h))]
    labels = []
    for x, y in local:
        x = h if abs(x - h) <= eps else x
        y = h if abs(y - h) <= eps else y
        inside = [x <= h and y >= h, x >= h and y >= h,
                  x <= h and y <= h, x >= h and y <= h]
        regs = [k for k in range(4) if inside[k] and not any(
            abs(x - px) <= eps and abs(y - py) <= eps for px, py in removed[k])]
        if not regs:
            raise AssertionError("quadrant assignment missed (%g, %g)" % (x, y))
        labels.append(regs[0])
    return labels


def reference_violation(verts, p):
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return float(np.max((normals * verts).sum(axis=1) - normals @ p))


def reference_core_rim(pts):
    hexa = pal_hexagon(pts)
    w = hexa.width
    if w == 0.0:
        return [0] * len(pts)
    c, corners = np.asarray(hexa.center), hexa.corners()
    mids = np.array([(corners[i - 1] + corners[i]) / 2 for i in range(6)])
    q = mids + (c - mids) / (w / 2) * ((math.sqrt(3) - 1) / 2 * w)
    regions = [(q, list(q))] + [
        (np.array([q[i], mids[i], corners[i], mids[(i + 1) % 6], q[(i + 1) % 6]]),
         [q[(i + 1) % 6], mids[(i + 1) % 6]]) for i in range(6)]
    eps = 1e-12 * max(w, 1.0)
    labels = []
    for p in pts:
        best, hit = (math.inf, None), None
        for idx, (verts, excluded) in enumerate(regions):
            if any(math.hypot(*(p - e)) <= eps for e in excluded):
                continue
            s = reference_violation(verts, p)
            if s <= eps:
                hit = idx
                break
            best = min(best, (s, idx))
        labels.append(best[1] if hit is None else hit)
    return labels


def reference_partition(pts, scheme):
    if len(pts) == 1:
        return [0]
    split = {3: reference_sectors, 4: reference_quadrants, 7: reference_core_rim}
    return split[scheme](pts)


def reference_cells(pts, width):
    t = tiling_parameter(width)
    hexa = pal_hexagon(pts)
    alpha = hexa.orientation + math.pi / 6
    step = math.sqrt(3) * (width / (3 * t))
    basis = np.array([[math.cos(alpha), math.cos(alpha + math.pi / 3)],
                      [math.sin(alpha), math.sin(alpha + math.pi / 3)]]) * step
    inv = np.linalg.inv(basis)
    seen, colors = {}, []
    for p in pts:
        x, z = (float(v) for v in inv @ (p - np.asarray(hexa.center)))
        y = -x - z
        rx, ry, rz = round(x), round(y), round(z)
        dx, dy, dz = abs(rx - x), abs(ry - y), abs(rz - z)
        if dx > dy and dx > dz:
            rx = -ry - rz
        elif dz >= dy:
            rz = -rx - ry
        assert (abs(rx) + abs(rz) + abs(rx + rz)) // 2 <= t
        colors.append(seen.setdefault((rx, rz), len(seen)))
    return colors


def outcome(fn, *args):
    try:
        return fn(*args)
    except AssertionError as exc:
        return "AssertionError: %s" % exc


def quarter_grid_sets(rng, count):
    """Subsets of the {0, 1/4, 1/2, 3/4, 1}^2 grid with diameter <= 1, each
    coordinate moved by 5e-13 to 2e-12 or not at all, then reflected, turned
    by quarter turns, scaled by 1 or 1 +- 1e-12 or 1 + 3e-10 and sometimes
    shifted.  Scheme 4's eps is 1e-12, so in its quadrant frame many points
    fall within eps of the removed points (0, 1/2), (1/2, 1/2), (1/2, 0), or
    just outside."""
    grid = np.array([(i, j) for i in range(5) for j in range(5)]) / 4.0
    for _ in range(count):
        size, chosen = int(rng.integers(2, 13)), []
        for p in grid[rng.permutation(len(grid))]:
            if len(chosen) < size and all(math.hypot(*(p - q)) <= 1.0
                                          for q in chosen):
                chosen.append(p)
        pts = np.array(chosen)
        jitter = (rng.uniform(5e-13, 2e-12, pts.shape)
                  * rng.choice([-1.0, 1.0], pts.shape))
        pts = pts + jitter * (rng.random(pts.shape) < 0.5)
        if rng.random() < 0.5:
            pts = pts[:, ::-1]
        pts = pts * rng.choice([-1.0, 1.0], 2)
        pts = pts * rng.choice([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 3e-10])
        if rng.random() < 0.3:
            pts = pts + rng.uniform(-2.0, 2.0, 2)
        yield pts


def test_partitions_match_per_point_reference():
    rng = np.random.default_rng(2024)
    sets = [random_unit_diameter_points(rng, int(rng.integers(1, 30)))
            for _ in range(300)]
    for k in range(3, 13):                   # regular polygons and grids put
        a = np.arange(k) * 2 * math.pi / k   # points on cut lines and corners
        sets.append(0.5 * np.stack([np.cos(a), np.sin(a)], axis=1))
    for k in range(2, 8):
        grid = np.array([(i, j) for i in range(k) for j in range(k)], float)
        sets.append(grid / math.hypot(k - 1, k - 1))
    sets += quarter_grid_sets(np.random.default_rng(25), 400)
    for pts in sets:
        for scheme in (3, 4, 7):
            assert (outcome(partition_unit, pts, scheme)
                    == outcome(reference_partition, pts, scheme)), (pts, scheme)


def test_tiling_matches_per_point_reference():
    rng = np.random.default_rng(4242)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)))
        r = Realization(rng.uniform(0, rng.uniform(0.5, 12), (n, 2)))
        ev = evaluate(g, r)
        if not ev.valid or ev.width == 0.0:
            continue
        c, _ = tiling_coloring(g, r)
        assert list(c.colors) == reference_cells(r.coords, ev.width)
        done += 1
    r = lattice_complete_arrangement(600)
    c, _ = tiling_coloring(cycle(600), r)
    assert list(c.colors) == reference_cells(r.coords, diameter(r.coords)[0])
