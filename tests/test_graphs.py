"""Graph construction, composition, reductions and file formats."""

import math

import numpy as np
import pytest

from planewidth.graphs import (
    Graph, Homomorphism, ParameterError, cartesian, circulant, circle_star,
    circle_star_min_n, circle_star_points, coloring_homomorphism, complement,
    complete, compose, cycle, disjoint_union, double_subdivide, generate,
    graph_from_edges, join, odd_wheel, petersen, read_dimacs, read_edge_list,
    reduce_four_cycle_pairs, verify_homomorphism, write_dimacs,
    write_edge_list,
)

from conftest import random_graph


def test_complete_counts():
    for n in range(2, 9):
        g = complete(n)
        assert g.n == n
        assert g.m == n * (n - 1) // 2


def test_complete_4():
    g = complete(4)
    assert g.n == 4 and g.m == 6


def test_cycle_and_wheel():
    c = cycle(5)
    assert c.m == 5
    w = odd_wheel(5)
    assert w.n == 6
    # hub is the last vertex and sees the whole cycle
    assert w.degree(5) == 5
    assert w.m == 10
    with pytest.raises(ParameterError):
        odd_wheel(4)


def test_circulant_adjacency():
    g = circulant(25, 4)
    assert g.has_edge(0, 4)
    assert not g.has_edge(0, 3)
    # vertex-transitive with degree p - 2q + 1
    degs = {g.degree(v) for v in range(25)}
    assert degs == {25 - 8 + 1}
    with pytest.raises(ParameterError):
        circulant(8, 4)


def test_circle_star_shape():
    g = circle_star(4, 0.1)
    assert g.n == 26
    # the added center is universal
    assert g.degree(25) == 25


def test_circle_star_rim_adjacency_matches_chords():
    n, eps = 4, 0.1
    g = circle_star(n, eps)
    pts = circle_star_points(n, eps)
    radius = (2.0 + eps) / 2.0
    for k in range(1, 13):
        chord = 2.0 * radius * math.sin(k * math.pi / 25.0)
        assert g.has_edge(0, k) == (chord >= 1.0)
    # concretely: chord at step 4 just clears 1, step 3 does not
    assert g.has_edge(0, 4) and not g.has_edge(0, 3)
    assert len(pts) == 25


def test_circle_star_min_n():
    n = circle_star_min_n(0.1)
    # smallest n with (2 + eps) sin(3n pi / (6n+1)) >= ... : must itself
    # produce a graph whose rim needs every long chord
    g = circle_star(n, 0.1)
    assert g.n == 6 * n + 2
    if n > 1:
        smaller = circle_star_min_n(0.5)
        assert smaller <= n


def test_compose_join_cartesian_complement():
    assert compose("join", complete(2), complete(2)).m == complete(4).m
    q2 = compose("cartesian", complete(2), complete(2))
    assert q2.n == 4 and q2.m == 4
    assert sorted(q2.degree(v) for v in range(4)) == [2, 2, 2, 2]
    c5 = cycle(5)
    assert complement(c5).m == 5
    # C5 is self-complementary: same degree sequence, same size
    assert sorted(complement(c5).degree(v) for v in range(5)) == [2] * 5
    with pytest.raises(ParameterError):
        compose("nope", c5, c5)


def test_disjoint_union_offsets():
    u = disjoint_union(cycle(3), cycle(4))
    assert u.n == 7 and u.m == 7
    assert u.has_edge(0, 1) and u.has_edge(3, 4)
    assert not u.has_edge(2, 3)


def test_double_subdivide_triangle_gives_c5():
    g = double_subdivide(complete(3), (0, 1))
    assert g.n == 5 and g.m == 5
    assert sorted(g.degree(v) for v in range(5)) == [2] * 5
    with pytest.raises(ParameterError):
        double_subdivide(complete(3), (0, 4))


def test_double_subdivide_edge_count_and_homomorphism():
    g = complete(4)
    e = (0, 1)
    gp = double_subdivide(g, e)
    assert gp.m == g.m + 2
    # x -> v, y -> u collapses the subdivision back onto the original edge
    u, v = e
    x, y = g.n, g.n + 1
    mapping = list(range(g.n)) + [v, u]
    phi = Homomorphism(gp, g, tuple(mapping))
    assert verify_homomorphism(phi)


def test_reduce_four_cycle_pairs():
    g = complete(4)
    gp = double_subdivide(g, (0, 1))
    # re-add the original edge: the two new vertices now sit on a 4-cycle
    gpp = Graph(gp.n, gp.edges | frozenset({(0, 1)}))
    red = reduce_four_cycle_pairs(gpp)
    assert red.n == 4 and red.m == 6
    assert red.edges == complete(4).edges
    # fixed point on a graph with no such pair
    assert reduce_four_cycle_pairs(cycle(5)).edges == cycle(5).edges
    assert reduce_four_cycle_pairs(gpp).n <= gpp.n


def test_homomorphism_basics():
    g = complete(4)
    ident = Homomorphism(g, g, tuple(range(4)))
    assert verify_homomorphism(ident)
    const = Homomorphism(g, g, (0, 0, 0, 0))
    assert not verify_homomorphism(const)
    with pytest.raises(ParameterError):
        Homomorphism(g, g, (0, 1, 2, 9))


def test_coloring_as_homomorphism():
    g = cycle(5)
    colors = [0, 1, 0, 1, 2]
    phi = coloring_homomorphism(g, colors, 3)
    assert verify_homomorphism(phi)
    assert phi.target.n == 3


def test_generate_specs():
    assert generate(("complete", 5)).m == 10
    assert generate(("cycle", 6)).n == 6
    assert generate(("odd-wheel", 7)).n == 8
    assert generate(("circulant", 25, 4)).m == 25 * 18 // 2
    assert generate(("circle-star", 4, 0.1)).n == 26
    with pytest.raises(ParameterError):
        generate(("unknown", 3))


def test_edge_list_round_trip(tmp_path):
    g = random_graph(np.random.default_rng(7), 12, 0.4)
    path = str(tmp_path / "g.txt")
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.n == g.n and back.edges == g.edges


def test_edge_list_bare_count_first_line(tmp_path):
    path = str(tmp_path / "g.txt")
    with open(path, "w") as fh:
        fh.write("# header\n5\n0 1\n1 2\n")
    g = read_edge_list(path)
    assert g.n == 5 and g.edges == frozenset({(0, 1), (1, 2)})
    with open(path, "w") as fh:
        fh.write("2\n0 3\n")
    assert read_edge_list(path).n == 4


@pytest.mark.parametrize("text, lineno", [
    ("0 1\n3\n", 2),              # a lone count only on the first data line
    ("n 3\n0 1 2\n", 2),
    ("n 3\n0 x\n", 2),
    ("# c\nn\n", 2),
    ("n 3 4\n", 1),
    ("0 1\n1.5 2\n", 2),
])
def test_edge_list_malformed_lines(tmp_path, text, lineno):
    path = str(tmp_path / "g.txt")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ParameterError, match="^line %d: " % lineno):
        read_edge_list(path)


def test_edge_list_comments_and_blanks(tmp_path):
    path = str(tmp_path / "g.txt")
    with open(path, "w") as fh:
        fh.write("# a triangle\nn 3\n\n0 1\n1 2   # trailing\n0 2\n")
    g = read_edge_list(path)
    assert g.n == 3 and g.m == 3


def test_dimacs_round_trip(tmp_path):
    g = petersen()
    path = str(tmp_path / "g.col")
    write_dimacs(g, path)
    back = read_dimacs(path)
    assert back.n == 10 and back.edges == g.edges
    with open(path) as fh:
        text = fh.read()
    assert "p edge 10 15" in text
    # wire format is 1-based
    assert "e 0 " not in text


def test_graph_invariants():
    with pytest.raises(ParameterError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ParameterError):
        graph_from_edges(3, [(0, 5)])
    g = graph_from_edges(3, [(1, 0), (0, 1)])
    assert g.m == 1
    assert Graph(4, frozenset({(3, 1), (2, 0)})).edges == {(1, 3), (0, 2)}


def test_graph_error_names_smallest_bad_edge():
    with pytest.raises(ParameterError, match=r"self-loop \(1, 1\)"):
        Graph(4, [(3, 3), (2, 0), (1, 1), (2, 9)])
    with pytest.raises(ParameterError, match=r"edge \(-1, 2\) out of range"):
        Graph(4, [(2, 3), (2, -1), (4, 5)])


def test_edge_array_matches_sorted_edges():
    rng = np.random.default_rng(11)
    graphs = [complete(7), petersen(), circulant(13, 4), graph_from_edges(3, []),
              random_graph(rng, 30, 0.3), reduce_four_cycle_pairs(cycle(8))]
    for g in graphs:
        arr = g.edge_array
        assert arr.dtype == np.intp and arr.shape == (g.m, 2)
        assert np.array_equal(arr, np.array(g.sorted_edges()).reshape(-1, 2))
        assert g.edge_array is arr and not arr.flags.writeable
