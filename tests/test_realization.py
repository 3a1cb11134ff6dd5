"""Realization verification and every explicit construction."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from planewidth import graphs
from planewidth.coloring import Coloring, ImproperColoringError, \
    chromatic_number
from planewidth.geometry import INF, L2, LINE, LINF, NormSpec, diameter, \
    distance, edge_lengths
from planewidth.graphs import (
    Graph, ParameterError, cartesian, circulant, complete, cycle,
    disjoint_union, graph_from_edges, groetzsch, join, odd_wheel, petersen,
)
from planewidth.realization import (
    COMPLETE_WIDTH, CertificateError, Evaluation, Realization, evaluate,
    feasibilize, from_circular, from_coloring, join_realization,
    known_complete_arrangement, lattice_complete_arrangement,
    low_dim_realization, product_realization, pullback, read_realization,
    union_realization, write_realization,
)

from conftest import random_graph

PHI = (1 + math.sqrt(5)) / 2


def square_realization():
    return Realization(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


def test_equal_realizations_hash_equal():
    # equality is np.array_equal on the coordinates, so -0.0 equals 0.0
    pairs = [
        (Realization([[0.0, -0.0], [1.0, 2.5]]),
         Realization(np.array([[-0.0, 0.0], [1.0, 2.5]]))),
        (Realization(((0, 0), (1, 0))), Realization([[0.0, 0], [1.0, 0]])),
        (Realization([[-0.0], [3.0]], LINE),
         Realization([[0.0], [3.0]], LINE)),
        (Realization(np.empty((0, 2))), Realization([])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert Realization([[0.0, 0.0]], LINF) != Realization([[0.0, 0.0]])
    assert Realization([[0.0], [1.0]], LINE) != Realization([[0.0, 1.0]])


def test_evaluate_square():
    ev = evaluate(complete(4), square_realization())
    assert ev.valid
    assert ev.width == pytest.approx(math.sqrt(2), abs=1e-12)
    assert ev.min_edge_distance == pytest.approx(1.0, abs=1e-12)


def test_evaluate_coincident_invalid():
    ev = evaluate(complete(2), Realization(((0.0, 0.0), (0.0, 0.0))))
    assert not ev.valid
    assert ev.min_edge_distance == 0.0
    assert ev.violating_edge == (0, 1)


def test_evaluate_k7_hexagon():
    ev = evaluate(complete(7), known_complete_arrangement(7))
    assert ev.valid and ev.width == pytest.approx(2.0, abs=1e-12)


def test_evaluate_size_mismatch():
    with pytest.raises(ParameterError):
        evaluate(complete(3), square_realization())


@pytest.mark.parametrize("tol", [math.nan, math.inf, 1.0])
def test_evaluate_rejects_tol_not_below_1(tol):
    # a K_3 with 0.1-long edges must never read as valid
    r = Realization([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    with pytest.raises(ParameterError):
        evaluate(complete(3), r, tol=tol)


def test_evaluate_edgeless():
    g = graph_from_edges(2, [])
    ev = evaluate(g, Realization(((0.0, 0.0), (0.25, 0.0))))
    assert ev.valid and ev.width == 0.25
    assert ev.min_edge_distance == math.inf and ev.violating_edge is None


def reference_evaluate(g, r, tol):
    """Per-edge loop over the sorted edges, one ``distance`` call each."""
    width, _ = diameter(r.coords, r.norm)
    min_d, bad = math.inf, None
    for u, v in g.sorted_edges():
        d = distance(r.points[u], r.points[v], r.norm)
        min_d = min(min_d, d)
        if bad is None and d < 1.0 - tol:
            bad = (u, v)
    return Evaluation(width, min_d, bad is None, bad)


# quarter-grid coordinates give exact unit edges and coincident points
_coord = st.one_of(st.integers(-8, 8).map(lambda k: k / 4.0),
                   st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def _graph_and_points(draw, dim):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = graph_from_edges(n, [e for e, k in zip(pairs, keep) if k])
    pts = draw(st.lists(st.tuples(*[_coord] * dim), min_size=n, max_size=n))
    return g, pts


@pytest.mark.parametrize("tol", [1e-9, 0.0])
@pytest.mark.parametrize("norm", [L2, LINF, NormSpec(1.0, 2), NormSpec(3.0, 2),
                                  LINE], ids=["l2", "linf", "l1", "l3", "line"])
def test_evaluate_matches_per_edge_loop(norm, tol):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_graph_and_points(norm.dim))
    def check(case):
        g, pts = case
        r = Realization(tuple(pts), norm)
        got, want = evaluate(g, r, tol), reference_evaluate(g, r, tol)
        assert got == want
        assert got.min_edge_distance.hex() == want.min_edge_distance.hex()
        lengths = edge_lengths(r.coords, g.edge_array, norm)
        assert [x.hex() for x in lengths.tolist()] == \
            [distance(r.points[u], r.points[v], norm).hex()
             for u, v in g.sorted_edges()]
        # strided index arrays: the rows reversed, the columns swapped
        for view in (g.edge_array[::-1], g.edge_array[:, ::-1]):
            assert evaluate(Graph(g.n, view), r, tol) == got
            want = np.array([distance(r.points[u], r.points[v], norm)
                             for u, v in view.tolist()], dtype=float)
            assert edge_lengths(r.coords, view, norm).tobytes() == \
                want.reshape(-1).tobytes()
    check()


def test_feasibilize_identity_and_scaling():
    r = square_realization()
    assert feasibilize(complete(4), r).points == r.points
    small = Realization(np.array(
        [[0.0, 0.0], [0.5, 0.0], [0.25, 0.25 * math.sqrt(3)]]))
    fixed = feasibilize(complete(3), small)
    ev = evaluate(complete(3), fixed)
    assert ev.valid
    assert ev.width == pytest.approx(1.0, abs=1e-9)


def test_feasibilize_perturbed_pentagon():
    rng = np.random.default_rng(2)
    base = known_complete_arrangement(5).coords
    bumped = base + rng.normal(scale=0.004, size=base.shape)
    fixed = feasibilize(complete(5), bumped if isinstance(bumped, Realization)
                        else Realization(bumped))
    ev = evaluate(complete(5), fixed)
    assert ev.valid
    ev0 = evaluate(complete(5), Realization(bumped))
    if ev0.min_edge_distance < 1.0:
        expect = ev0.width / ev0.min_edge_distance
        assert ev.width == pytest.approx(expect, rel=1e-9)


def test_feasibilize_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_graph(rng, 8, 0.5)
        if g.m == 0:
            continue
        r = Realization(rng.uniform(0, 2, size=(8, 2)))
        try:
            f1 = feasibilize(g, r)
        except CertificateError:
            continue
        f2 = feasibilize(g, f1)
        assert f2.points == f1.points


@pytest.mark.parametrize("start", [(0.05, 0.99), (1.01, 20.0)],
                         ids=["below", "above"])
def test_feasibilize_rescales_to_unit_shortest_edge(start):
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_graph_and_points(2), st.floats(*start))
    def check(case, target):
        g, pts = case
        assume(g.m > 0)
        arr = np.array(pts, dtype=float)
        shortest = evaluate(g, Realization(arr), tol=0.0)
        assume(shortest.min_edge_distance >= 1e-2)
        arr *= target / shortest.min_edge_distance
        r = Realization(arr)
        m0 = evaluate(g, r, tol=0.0).min_edge_distance
        f = feasibilize(g, r)
        assert abs(evaluate(g, f, tol=0.0).min_edge_distance - 1.0) <= 1e-12
        centroid = arr.mean(axis=0)
        np.testing.assert_allclose(f.coords, centroid + (arr - centroid) / m0,
                                   rtol=0.0, atol=1e-12)
        assert feasibilize(g, f).points == f.points
    check()


def test_feasibilize_coincident_adjacent_rejected():
    with pytest.raises(CertificateError, match="share a point"):  # exit 2
        feasibilize(complete(2), Realization(((1.0, 1.0), (1.0, 1.0))))
    # an edge length past the float range is an input error, not a rescale
    # by inf that puts both vertices on one point
    for pts, norm in [([[0.0, 0.0], [1e200, 0.0]], L2),
                      ([[0.0, 0.0], [1e5, 0.0]], NormSpec(64.0, 2))]:
        with pytest.raises(ParameterError, match="overflows the float range"):
            feasibilize(complete(2), Realization(pts, norm))


def test_known_complete_arrangements():
    widths = {2: 1.0, 3: 1.0, 4: math.sqrt(2), 5: PHI,
              6: 2 * math.sin(0.4 * math.pi), 7: 2.0,
              8: 1.0 / (2 * math.sin(math.pi / 14))}
    for n, expect in widths.items():
        r = known_complete_arrangement(n)
        ev = evaluate(complete(n), r, tol=1e-9)
        assert ev.valid, n
        assert ev.width == pytest.approx(expect, abs=1e-12)
        assert COMPLETE_WIDTH[n] == pytest.approx(expect, abs=1e-15)
    with pytest.raises(ParameterError):
        known_complete_arrangement(9)
    with pytest.raises(ParameterError):
        known_complete_arrangement(1)


def test_known_complete_8_center_distance():
    r = known_complete_arrangement(8)
    pts = r.coords
    center = pts[-1]
    ring = pts[:-1]
    dist = np.linalg.norm(ring - center, axis=1)
    assert np.allclose(dist, 1.0 / (2 * math.sin(math.pi / 7)), atol=1e-12)
    assert dist.min() >= 1.0


def test_lattice_arrangement_small():
    r3 = lattice_complete_arrangement(3)
    w, _ = diameter(r3.coords)
    assert w == pytest.approx(1.0, abs=1e-12)
    r7 = lattice_complete_arrangement(7)
    w, _ = diameter(r7.coords)
    assert w == pytest.approx(2.0, abs=1e-12)
    assert evaluate(complete(7), r7).valid


def test_lattice_arrangement_n1000():
    r = lattice_complete_arrangement(1000)
    pts = r.coords
    w, _ = diameter(pts)
    ratio = w / math.sqrt(1000)
    # frozen measurement of this construction (asymptote is ~1.0501)
    assert ratio == pytest.approx(1.04499, abs=1e-4)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, 4.0)
    assert math.sqrt(float(d2.min())) >= 1.0 - 1e-12


#: sha256 prefixes of lattice_complete_arrangement(n).coords as little-endian
#: float64, recorded from the per-point construction (math.hypot and
#: math.atan2 on each candidate, sorted by distance, angle, index).
#: np.hypot reorders equal distances from n = 1191 on, sqrt(x*x + y*y) from
#: n = 4.
LATTICE_DIGESTS = {
    2: "2f28529649d3b6b2", 3: "94c3d388be3e9c1f", 4: "6233bd55d3ab9f91",
    7: "f878aec6eca5a38c", 19: "84406c43d908a9b6", 100: "497f7dd4cd518596",
    600: "135bf3ec4469092e", 1000: "dac333d8d6ea057e",
    1191: "233e844e70461264", 1499: "b995d7f0b5e22887",
    2600: "b3c1683c1f075c7a", 10 ** 4: "c1b92520d22a3199",
}


def test_lattice_arrangement_pinned():
    for n, digest in LATTICE_DIGESTS.items():
        coords = lattice_complete_arrangement(n).coords
        got = hashlib.sha256(coords.astype("<f8").tobytes()).hexdigest()
        assert got[:16] == digest, n


def test_from_coloring_widths():
    g = cycle(6)
    c = chromatic_number(g).coloring
    assert evaluate(g, from_coloring(g, c)).width == pytest.approx(1.0, abs=1e-12)
    w = odd_wheel(5)
    cw = chromatic_number(w).coloring
    assert cw.k == 4
    assert evaluate(w, from_coloring(w, cw)).width == pytest.approx(
        math.sqrt(2), abs=1e-12)
    k7 = complete(7)
    c7 = Coloring(list(range(7)))
    assert evaluate(k7, from_coloring(k7, c7)).width == pytest.approx(
        2.0, abs=1e-12)


def test_from_coloring_improper_rejected():
    g = complete(3)
    with pytest.raises(CertificateError):
        from_coloring(g, Coloring([0, 0, 1]))


def test_improper_coloring_is_the_certificate_error():
    # one proper-colouring check: the coloring module's error, carrying the
    # edge as its witness
    assert CertificateError is graphs.CertificateError
    for build in (lambda g, c: from_coloring(g, c),
                  lambda g, c: low_dim_realization(g, c, "linf-grid")):
        with pytest.raises(ImproperColoringError) as ei:
            build(cycle(4), Coloring([0, 1, 1, 0]))
        assert isinstance(ei.value, CertificateError)
        assert ei.value.witness == (0, 3)
        assert str(ei.value) == "monochromatic edge (0, 3)"


def test_from_coloring_large_k_uses_lattice():
    g = complete(9)
    c = Coloring(list(range(9)))
    r = from_coloring(g, c)
    ev = evaluate(g, r)
    assert ev.valid
    w, _ = diameter(lattice_complete_arrangement(9).coords)
    assert ev.width == pytest.approx(w, abs=1e-12)


def test_from_circular_triangle():
    g = complete(3)
    r = from_circular(g, [0.0, 2 * math.pi / 3, 4 * math.pi / 3], 3.0)
    ev = evaluate(g, r)
    assert ev.valid
    # three points on the circle of radius 1/(2 sin(pi/3)) pairwise at
    # exactly unit distance; the guaranteed cap is the circle diameter
    assert ev.width == pytest.approx(1.0, abs=1e-9)
    assert ev.width <= 2 / math.sqrt(3) + 1e-9


def test_from_circular_k2_antipodal():
    r = from_circular(complete(2), [0.0, math.pi], 2.0)
    ev = evaluate(complete(2), r)
    assert ev.valid and ev.width == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.linalg.norm(r.coords, axis=1), 0.5)


def test_from_circular_circulant():
    g = circulant(25, 4)
    angles = [2 * math.pi * i / 25 for i in range(25)]
    r = from_circular(g, angles, 25 / 4)
    ev = evaluate(g, r)
    assert ev.valid
    assert ev.width <= 1.0 / math.sin(4 * math.pi / 25) + 1e-9


def test_from_circular_gap_violation():
    with pytest.raises(CertificateError):
        from_circular(complete(3), [0.0, 0.1, 2.0], 3.0)


def test_from_circular_input_errors():
    with pytest.raises(ParameterError, match="2 points for 3 vertices"):
        from_circular(complete(3), [0.0, 2.0], 3.0)
    for chi_c in (1.5, math.inf, math.nan):
        with pytest.raises(ParameterError, match="chi_c must be"):
            from_circular(complete(3), [0.0, 2.0, 4.0], chi_c)


def test_from_circular_short_chord_within_old_slack():
    """A gap short of 2*pi/chi_c by under 1e-9 radians still makes the chord
    (0, 10) 0.99999999889852875 long, which ``evaluate`` rejects."""
    g = circulant(81, 10)
    shrink = 1 - 0.9e-9 / (2 * math.pi / 8.1)
    angles = [float("%.17g" % (i * 2 * math.pi / 81 * shrink))
              for i in range(81)]
    with pytest.raises(CertificateError) as info:
        from_circular(g, angles, 8.1)
    assert info.value.witness == (0, 10)


def test_pullback():
    g = complete(4)
    r = square_realization()
    assert pullback(g, g, list(range(4)), r).points == r.points
    # the edge (0, 1) doubly subdivided as 0-x-y-1, pulled back through
    # x -> 1, y -> 0
    gp = Graph(6, g.edge_array[1:].tolist() + [(0, 4), (4, 5), (5, 1)])
    rp = pullback(gp, g, (0, 1, 2, 3, 1, 0), r)
    ev = evaluate(gp, rp)
    assert ev.valid
    assert ev.width <= math.sqrt(2) + 1e-12


def test_pullback_of_a_coloring_is_from_coloring():
    """A proper k-coloring is a homomorphism to K_k, and pulling back the
    K_k arrangement places each vertex as ``from_coloring`` does."""
    for g in (cycle(5), petersen(), groetzsch(), odd_wheel(5)):
        c = chromatic_number(g).coloring
        assert 2 <= c.k <= 8
        r = pullback(g, complete(c.k), c.colors,
                     known_complete_arrangement(c.k))
        assert np.array_equal(r.coords, from_coloring(g, c).coords)


def test_pullback_rejects_bad_map():
    g = complete(3)
    r = known_complete_arrangement(3)
    for phi in [(0, 0, 1), (2, 2, 2)]:    # each collapses an edge
        with pytest.raises(CertificateError, match="not a homomorphism"):
            pullback(g, g, phi, r)
    for phi in [(0, 1), (0, 1, 3), (0, 1, -1), (0, 1, 1.5)]:
        with pytest.raises(ParameterError, match="map must send"):
            pullback(g, g, phi, r)
    with pytest.raises(ParameterError, match="does not match"):
        pullback(g, g, (0, 1, 2), known_complete_arrangement(4))


def test_join_realization_examples():
    seg = Realization(((0.0, 0.0), (1.0, 0.0)))
    r = join_realization(complete(2), complete(2), seg, seg)
    comp = join(complete(2), complete(2))
    ev = evaluate(comp, r)
    assert ev.valid
    assert ev.width <= 3.0 + 1e-9
    # K1 join C5
    k1 = graph_from_edges(1, [])
    c5 = cycle(5)
    rc5 = from_coloring(c5, chromatic_number(c5).coloring)
    w5 = evaluate(c5, rc5).width
    rj = join_realization(k1, c5, Realization(((0.0, 0.0),)), rc5)
    evj = evaluate(join(k1, c5), rj)
    assert evj.valid
    assert evj.width <= w5 + 0.0 + 1.0 + 1e-9


def test_product_realization_square():
    seg_x = Realization(((0.0, 0.0), (1.0, 0.0)))
    seg_y = Realization(((0.0, 0.0), (0.0, 1.0)))
    r = product_realization(complete(2), complete(2), seg_x, seg_y)
    ev = evaluate(cartesian(complete(2), complete(2)), r)
    assert ev.valid
    assert ev.width == pytest.approx(math.sqrt(2), abs=1e-9)


def test_product_preserves_fiber_distances():
    g, h = cycle(5), complete(3)
    rg = from_coloring(g, chromatic_number(g).coloring)
    rh = known_complete_arrangement(3)
    r = product_realization(g, h, rg, rh)
    pg, pr = rg.coords, r.coords
    for x in range(h.n):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                a = pr[u * h.n + x]
                b = pr[v * h.n + x]
                assert np.hypot(*(a - b)) == pytest.approx(
                    float(np.hypot(*(pg[u] - pg[v]))), abs=1e-9)


def test_union_realization_triangles():
    tri = known_complete_arrangement(3)
    r = union_realization(complete(3), complete(3), tri, tri)
    ev = evaluate(disjoint_union(complete(3), complete(3)), r)
    assert ev.valid
    assert ev.width <= 2.0 / math.sqrt(3) + 1e-9


def test_union_with_single_point():
    tri = known_complete_arrangement(3)
    lone = graph_from_edges(1, [])
    r = union_realization(complete(3), lone, tri,
                          Realization(((0.0, 0.0),)))
    ev = evaluate(disjoint_union(complete(3), lone), r)
    assert ev.valid
    assert ev.width <= 1.0 + 1e-9


LINE_K2 = Realization([[0.0], [1.0]], LINE)


def test_join_realization_rejects_line_parts():
    with pytest.raises(ParameterError, match="Euclidean only"):
        join_realization(complete(2), complete(2), LINE_K2, LINE_K2)


def test_product_realization_rejects_line_parts():
    with pytest.raises(ParameterError, match="Euclidean only"):
        product_realization(complete(2), complete(2), LINE_K2, LINE_K2)


def test_product_realization_rejects_too_few_points():
    seg = known_complete_arrangement(2)
    with pytest.raises(ParameterError, match="2 and 2 points for 2 and 3"):
        product_realization(complete(2), complete(3), seg, seg)


def test_compositions_reject_max_norm_parts():
    seg = Realization(((0.0, 0.0), (1.0, 0.0)), LINF)
    for build in (join_realization, product_realization, union_realization):
        with pytest.raises(ParameterError, match="Euclidean only"):
            build(complete(2), complete(2), seg, seg)


def test_composition_bounds_random_pairs():
    rng = np.random.default_rng(21)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(3, 8)), 0.5)
        h = random_graph(rng, int(rng.integers(3, 8)), 0.5)
        rg = from_coloring(g, chromatic_number(g).coloring)
        rh = from_coloring(h, chromatic_number(h).coloring)
        wg = evaluate(g, rg).width
        wh = evaluate(h, rh).width
        rj = join_realization(g, h, rg, rh)
        assert evaluate(join(g, h), rj).valid
        assert evaluate(join(g, h), rj).width <= wg + wh + 1.0 + 1e-9
        rp = product_realization(g, h, rg, rh)
        assert evaluate(cartesian(g, h), rp).valid
        assert evaluate(cartesian(g, h), rp).width <= wg + wh + 1e-9
        ru = union_realization(g, h, rg, rh)
        assert evaluate(disjoint_union(g, h), ru).valid
        bound = max(wg, wh, (wg + wh) / math.sqrt(3))
        assert evaluate(disjoint_union(g, h), ru).width <= bound + 1e-9


def test_low_dim_line():
    g = complete(3)
    c = Coloring([0, 1, 2])
    r = low_dim_realization(g, c, "line")
    assert r.norm.dim == 1
    ev = evaluate(g, r)
    assert ev.valid and ev.width == pytest.approx(2.0, abs=1e-12)


def test_low_dim_linf_grid():
    g = complete(5)
    c = Coloring(list(range(5)))
    r = low_dim_realization(g, c, "linf-grid")
    assert r.norm.p == LINF.p
    ev = evaluate(g, r)
    assert ev.valid
    assert ev.width == pytest.approx(2.0, abs=1e-12)
    assert math.sqrt(5) - 1 <= ev.width < math.sqrt(5)
    g4 = complete(4)
    r4 = low_dim_realization(g4, Coloring(list(range(4))), "linf-grid")
    assert evaluate(g4, r4).width == pytest.approx(1.0, abs=1e-12)


def test_low_dim_improper_rejected():
    with pytest.raises(CertificateError):
        low_dim_realization(complete(2), Coloring([0, 0]), "line")


def test_realization_file_round_trip(tmp_path):
    r = known_complete_arrangement(6)
    path = str(tmp_path / "r.json")
    write_realization(r, path)
    back = read_realization(path)
    assert back.points == r.points
    assert back.norm == r.norm


def test_realization_file_format(tmp_path):
    import json
    r = Realization(((1.0 / 3.0, 0.0), (0.5, 2.0)))
    path = str(tmp_path / "r.json")
    write_realization(r, path)
    with open(path) as fh:
        obj = json.load(fh)
    assert obj["n"] == 2 and obj["dim"] == 2 and obj["norm"] == 2
    assert obj["points"][0][0] == pytest.approx(1.0 / 3.0, abs=0)


@pytest.mark.parametrize("obj, message", [
    ({"dim": 2, "points": [[0, 0]]}, "'norm'"),
    ({"norm": 2, "points": [[0, 0]]}, "'dim'"),
    ({"norm": 2, "dim": 2}, "'points'"),
    ({"norm": 2, "dim": 2, "points": 3}, "'points' must be a list"),
    ({"norm": 2, "dim": 2, "points": [0, 1]}, "'points' must be a list"),
    ([[0, 0]], "JSON object"),
    ({"n": 7, "norm": 2, "dim": 2, "points": [[0, 0], [1, 0], [0, 1]]},
     "'n' is 7, but it has 3 points"),
    ({"norm": 2, "dim": "2", "points": [[0, 0]]}, "'dim' must be an integer"),
    ({"norm": 2, "dim": True, "points": [[0]]}, "'dim' must be an integer"),
    ({"norm": 2, "dim": 2.5, "points": [[0, 0]]}, "'dim' must be an integer"),
    ({"norm": True, "dim": 2, "points": [[0, 0]]}, "'norm' must be a number"),
    # strings that float() parses: only a number or exactly "inf" is a norm
    ({"norm": "2", "dim": 2, "points": [[0, 0]]}, "got '2'"),
    ({"norm": "Infinity", "dim": 2, "points": [[0, 0]]}, "got 'Infinity'"),
    ({"norm": "1e0", "dim": 2, "points": [[0, 0]]}, "got '1e0'"),
    ({"norm": " 2 ", "dim": 2, "points": [[0, 0]]}, "got ' 2 '"),
])
def test_read_realization_malformed(tmp_path, obj, message):
    import json
    path = str(tmp_path / "r.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    with pytest.raises(ParameterError, match=message):
        read_realization(path)


def test_realization_file_inf_norm(tmp_path):
    r = Realization(((0.0, 0.0), (1.0, 1.0)), LINF)
    path = str(tmp_path / "r.json")
    write_realization(r, path)
    back = read_realization(path)
    assert back.norm.p == LINF.p
    import json
    with open(path) as fh:
        assert json.load(fh)["norm"] == "inf"


@pytest.mark.parametrize("norm", [L2, LINF, NormSpec(1.0, 2), LINE,
                                  NormSpec(INF, 1), NormSpec(1.0, 1)],
                         ids=["l2", "linf", "l1", "line", "line-inf",
                              "line-l1"])
def test_realization_file_round_trip_is_bit_exact(tmp_path, norm):
    path = str(tmp_path / "r.json")
    coord = st.floats(allow_nan=False, allow_infinity=False)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(*[coord] * norm.dim), max_size=8))
    def check(pts):
        r = Realization(pts, norm)
        write_realization(r, path)
        back = read_realization(path)
        assert back.norm == norm and back.n == r.n
        assert np.array_equal(back.coords.view(np.int64),
                              r.coords.view(np.int64))

    check()
