"""Graph construction, composition and file formats."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from planewidth.graphs import (
    CertificateError, Graph, ParameterError, cartesian, circulant, circle_star,
    circle_star_points, complement, complete, cycle, disjoint_union, generate,
    graph_from_edges, join, odd_wheel, petersen, read_dimacs, read_edge_list,
    write_dimacs, write_edge_list,
)
from planewidth.realization import known_complete_arrangement, pullback

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
    assert np.count_nonzero(w.edge_array == 5) == 5
    assert w.m == 10
    with pytest.raises(ParameterError):
        odd_wheel(4)


def test_circulant_adjacency():
    g = circulant(25, 4)
    assert (0, 4) in g.edges
    assert (0, 3) not in g.edges
    # vertex-transitive with degree p - 2q + 1
    degs = set(np.bincount(g.edge_array.ravel(), minlength=25).tolist())
    assert degs == {25 - 8 + 1}
    with pytest.raises(ParameterError):
        circulant(8, 4)


def test_circle_star_shape():
    g = circle_star(4, 0.1)
    assert g.n == 26
    # the added center is universal
    assert np.count_nonzero(g.edge_array == 25) == 25


def test_circle_star_rim_adjacency_matches_chords():
    n, eps = 4, 0.1
    g = circle_star(n, eps)
    pts = circle_star_points(n, eps)
    radius = (2.0 + eps) / 2.0
    for k in range(1, 13):
        chord = 2.0 * radius * math.sin(k * math.pi / 25.0)
        assert ((0, k) in g.edges) == (chord >= 1.0)
    # concretely: chord at step 4 just clears 1, step 3 does not
    assert (0, 4) in g.edges and (0, 3) not in g.edges
    assert len(pts) == 25


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_circle_star_rejects_eps_not_positive_finite(eps):
    with pytest.raises(ParameterError):
        circle_star_points(2, eps)
    with pytest.raises(ParameterError):
        circle_star(2, eps)


def circle_star_min_n(eps):
    """Smallest n >= 2 with (2+eps) sin(n*pi/(6n+1)) >= 1: the reference
    loop the digests below were recorded with."""
    def short(n):
        return (2.0 + eps) * math.sin(n * math.pi / (6 * n + 1)) < 1.0

    # the left side increases with n, so if n = 10**6 fails every n does
    assert not short(10 ** 6)
    n = 2
    while short(n):
        n += 1
    return n


#: sha256 prefixes, per m, of circle_star(m, eps).edge_array as little-endian
#: int64 followed by the byte circle_star_min_n(eps), for eps one ulp below
#: and then one ulp above 1/sin(m pi/(6m+1)) - 2, the boundary where
#: circle_star_min_n steps to m.  Recorded from the per-pair construction
#: (math.hypot on each chord); np.hypot changes m = 6, 13 and 25,
#: sqrt(dx*dx + dy*dy) or edge_lengths 17 of the 24.
CIRCLE_STAR_DIGESTS = {
    2: "c3501edb42dbbaf4", 3: "07f05e53988075a7", 4: "4074d6456ed2a4c8",
    5: "6a5d959c2b71c7a6", 6: "88c069393d2c3cd1", 7: "76173a508a488986",
    8: "ff3f8e3bfc2f2bb1", 9: "c3bf71f3a6b2bf80", 10: "ba8f9ab6d45ce6f5",
    11: "0e360548d479dcfa", 12: "4102a140e1de5f21", 13: "85ab958b8053c6c6",
    14: "a8ac4138ee52fe82", 15: "3b15fa52cf2364f2", 16: "46e7292ddb6afe04",
    17: "ed0efd03664a6500", 18: "a1a5c1a31d49b67d", 19: "f871f98eefb7cf5a",
    20: "8bef82f2296b625f", 21: "de21762e0a9acc20", 22: "6fd13546ddcfc012",
    23: "906f24f96de96494", 24: "b4be39c067b685d4", 25: "b90d66048f127b80",
}


def test_circle_star_pinned_at_min_n_boundaries():
    for m, digest in CIRCLE_STAR_DIGESTS.items():
        b = 1.0 / math.sin(m * math.pi / (6 * m + 1)) - 2.0
        h = hashlib.sha256()
        for eps in (math.nextafter(b, 0.0), math.nextafter(b, math.inf)):
            h.update(circle_star(m, eps).edge_array.astype("<i8").tobytes())
            h.update(bytes([circle_star_min_n(eps)]))
        assert h.hexdigest()[:16] == digest, m


def test_compose_join_cartesian_complement():
    assert join(complete(2), complete(2)).m == complete(4).m
    q2 = cartesian(complete(2), complete(2))
    assert q2.n == 4 and q2.m == 4
    assert np.bincount(q2.edge_array.ravel()).tolist() == [2, 2, 2, 2]
    c5 = cycle(5)
    assert complement(c5).m == 5
    # C5 is self-complementary: same degree sequence, same size
    assert np.bincount(complement(c5).edge_array.ravel()).tolist() == [2] * 5


def test_disjoint_union_offsets():
    u = disjoint_union(cycle(3), cycle(4))
    assert u.n == 7 and u.m == 7
    assert (0, 1) in u.edges and (3, 4) in u.edges
    assert (2, 3) not in u.edges



def test_double_subdivide_edge_count_and_homomorphism():
    g = complete(4)
    u, v = e = (0, 1)
    # e doubly subdivided as u-x-y-v, with x = 4 and y = 5
    gp = Graph(6, (g.edges - {e}) | {(u, 4), (4, 5), (5, v)})
    assert gp.m == g.m + 2
    # x -> v, y -> u collapses the subdivision back onto the original edge
    r = pullback(gp, g, list(range(g.n)) + [v, u],
                 known_complete_arrangement(4))
    assert r.n == gp.n
    assert r.points[4] == r.points[v] and r.points[5] == r.points[u]


def test_homomorphism_basics():
    g = complete(4)
    r = known_complete_arrangement(4)
    assert pullback(g, g, tuple(range(4)), r).points == r.points
    with pytest.raises(CertificateError, match="not a homomorphism"):
        pullback(g, g, (0, 0, 0, 0), r)
    with pytest.raises(ParameterError, match="map must send"):
        pullback(g, g, (0, 1, 2, 9), r)

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


def write_and_read(tmp_path, text):
    path = str(tmp_path / "g.txt")
    with open(path, "w") as fh:
        fh.write(text)
    return read_edge_list(path)


@pytest.mark.parametrize("text, lineno, token", [
    ("0 99999999999999999999\n", 1, "99999999999999999999"),
    ("n 3\n0 1\n1 -99999999999999999999\n", 3, "-99999999999999999999"),
    ("2\n0 1  # 99999999999999999999\n\t+9223372036854775808 0\n", 3,
     "+9223372036854775808"),
    ("0 1\n-9223372036854775809 1\n", 2, "-9223372036854775809"),
    ("-9223372036854775808 1\n0 99999999999999999999\n", 2,
     "99999999999999999999"),
])
def test_edge_list_overflowing_endpoint(tmp_path, text, lineno, token):
    with pytest.raises(ParameterError, match="^line %d: endpoint %s is out of "
                       "range$" % (lineno, re.escape(token))):
        write_and_read(tmp_path, text)


def test_edge_list_endpoints_at_the_int64_ends(tmp_path):
    # both ends parse; the graph, not the reader, then rejects them
    with pytest.raises(ParameterError, match="^vertex count must be"):
        write_and_read(tmp_path, "0 9223372036854775807\n")
    with pytest.raises(ParameterError, match=r"^edge \(-9223372036854775808, "
                       r"1\) out of range for n=2$"):
        write_and_read(tmp_path, "-9223372036854775808 1\n")


@pytest.mark.parametrize("text, n", [
    ("\n\n", 0), ("# c\n", 0), ("5\n\n", 5), ("n 4\n# x\n", 4), ("", 0),
    pytest.param("n %s3\n" % ("0" * 5000), 3, id="5000-leading-zeros"),
])
def test_edge_list_without_edges(tmp_path, text, n):
    g = write_and_read(tmp_path, text)
    assert g.n == n and g.m == 0


_INT = re.compile(r"[+-]?[0-9]+")


def reference_read(text):
    """The edge-list grammar read line by line: ``(n, pairs)``, or the number
    of the first line that breaks the grammar, else of the first endpoint
    outside int64."""
    counts, pairs, bad, overflow, first = [], [], None, None, True
    for lineno, line in enumerate(text.split("\n"), 1):
        fields = [f for f in line.partition("#")[0].replace("\t", " ").split(" ")
                  if f]
        ints = [_INT.fullmatch(f) is not None for f in fields]
        if not fields:
            continue
        if ints == [True] and first:
            counts.append(int(fields[0]))
        elif fields[0] == "n" and ints == [False, True]:
            counts.append(int(fields[1]))
        elif ints == [True, True]:
            pairs.append([int(f) for f in fields])
            if not all(-2 ** 63 <= x < 2 ** 63 for x in pairs[-1]):
                overflow = overflow or lineno
        else:
            bad = bad or lineno
        first = False
    if bad or overflow:
        return bad or overflow
    n = max(counts, default=0)
    return (max(n, max(map(max, pairs)) + 1) if pairs else n), pairs


def _token(lo=-1, hi=30):
    return st.builds(lambda v, sign, zeros: ("-" if v < 0 else sign)
                     + "0" * zeros + str(abs(v)),
                     st.integers(lo, hi), st.sampled_from(["", "", "+"]),
                     st.sampled_from([0, 0, 0, 2]))


_huge = st.sampled_from(["99999999999999999999", "-99999999999999999999",
                         "9223372036854775808", "-9223372036854775809",
                         "9223372036854775807", "-9223372036854775808"])
_gap = st.sampled_from([" ", "\t", "  ", " \t"])
_pad = st.sampled_from(["", "", " ", "\t"])
_comment = st.sampled_from(["", "", "", "#", "# 0 1", "\t# n 3", "#5"])
_pair_line = st.tuples(_pad, _token(), _gap, _token(), _pad, _comment)
_good_line = st.one_of(
    _pair_line, _pair_line, _pair_line,
    st.tuples(_pad, st.just("n"), _gap, _token(-1, 40), _pad, _comment),
    st.tuples(_pad),                                               # blank
    st.tuples(_pad, st.sampled_from(["# c", "#", "#0 1"])),
).map("".join)
_odd_line = st.one_of(
    st.tuples(_pad, _token(-1, 40), _pad, _comment),                # lone count
    st.tuples(_pad, _token(), _gap, _huge, _comment),               # int64 ends
    st.tuples(_pad, st.sampled_from(["0 1 2", "x", "0 x", "n", "n 3 4", "1.5 2",
                                     "0,1", "n5", "0\x0b1", "- 1 2", "+-1 2",
                                     "c", "p edge 3 2", "1 2 n", "0 1 3 #"])),
).map("".join)


@st.composite
def _edge_list_text(draw):
    """Good lines, with up to two lines put in anywhere that may break the
    grammar: a lone count (legal on the first data line only), an endpoint
    at or past an end of int64 or a malformed line."""
    lines = draw(st.lists(_good_line, max_size=8))
    for line in draw(st.lists(_odd_line, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def test_edge_list_matches_line_by_line_reference(tmp_path):
    def outcome(read):
        try:
            g = read()
        except ParameterError as exc:
            return str(exc)
        return g.n, g.edge_array.tolist()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_edge_list_text())
    @example("\n\n")
    @example("# c\n")
    @example("5\n\n")
    @example("n 4\n# x\n")
    @example("0 1")
    @example("0 1\n")
    @example(" 0 1")
    @example("0 1 ")
    @example("0  1")
    @example("0 1\n 5\n")
    @example("0 1\n5 \n")
    @example("0 1\n\n")
    @example("5\n0 1\n2 3")
    @example("0 1\n\u0663 1\n")          # an Arabic-Indic digit is no digit
    def check(text):
        expected = reference_read(text)
        if isinstance(expected, int):
            with pytest.raises(ParameterError, match="^line %d: " % expected):
                write_and_read(tmp_path, text)
        else:
            assert (outcome(lambda: write_and_read(tmp_path, text))
                    == outcome(lambda: Graph(*expected)))

    check()


def test_edge_list_large_mixed_file(tmp_path):
    # plain lines with the grammar's other lines at known places: the plain
    # stretches between them are parsed from the bytes, the rest by the grammar
    rng = np.random.default_rng(11)
    u = rng.integers(0, 900, 200_000)
    v = (u + rng.integers(1, 900, 200_000)) % 900
    lines = ["%d %d" % e for e in zip(u.tolist(), v.tolist())]
    for i, line in [(0, "# header"), (1, "n 950"), (2, ""), (999, "7\t8"),
                    (1000, "# 1 2"), (1001, "9 10  # trailing"), (77_777, ""),
                    (150_000, "n 3"), (150_001, "+11 -0"),
                    (199_999, "12 13 # last")]:
        lines[i] = line
    text = "\n".join(lines) + "\n"
    assert write_and_read(tmp_path, text) == Graph(*reference_read(text))
    lines[150_000] = "0 1 2"
    with pytest.raises(ParameterError, match="^line 150001: "):
        write_and_read(tmp_path, "\n".join(lines) + "\n")


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


def test_graph_range_check_precedes_the_intp_cast():
    # a uint64 endpoint past the intp range is out of range, not wrapped
    with pytest.raises(ParameterError, match=r"^edge \(0, 9223372036854775809\) "
                       "out of range for n=3$"):
        Graph(3, np.array([[0, 2 ** 63 + 1]], dtype=np.uint64))
    with pytest.raises(ParameterError, match="out of range"):
        Graph(3, np.array([[1, 2 ** 64 - 1]], dtype=np.uint64))
    g = Graph(3, np.array([[2, 0], [1, 2]], dtype=np.uint64))
    assert g.edge_array.dtype == np.intp and g.edge_array.tolist() == [
        [0, 2], [1, 2]]


def test_graph_error_names_smallest_bad_edge():
    with pytest.raises(ParameterError, match=r"self-loop \(1, 1\)"):
        Graph(4, [(3, 3), (2, 0), (1, 1), (2, 9)])
    with pytest.raises(ParameterError, match=r"edge \(-1, 2\) out of range"):
        Graph(4, [(2, 3), (2, -1), (4, 5)])


def test_edge_array_matches_sorted_edges():
    rng = np.random.default_rng(11)
    graphs = [complete(7), petersen(), circulant(13, 4), graph_from_edges(3, []),
              random_graph(rng, 30, 0.3), cycle(8)]
    for g in graphs:
        arr = g.edge_array
        assert arr.dtype == np.intp and arr.shape == (g.m, 2)
        assert np.array_equal(arr, np.array(g.sorted_edges()).reshape(-1, 2))
        assert g.edge_array is arr and not arr.flags.writeable


_pairs = st.integers(1, 25).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), max_size=60)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_pairs)
def test_graph_normalises_repeated_and_reversed_pairs(case):
    n, pairs = case
    g = Graph(n, pairs + [(v, u) for u, v in pairs[::2]])
    assert g.edges == {(min(e), max(e)) for e in pairs}
    assert g.sorted_edges() == sorted(g.edges)


@pytest.mark.parametrize("write, read", [(write_edge_list, read_edge_list),
                                         (write_dimacs, read_dimacs)])
def test_file_round_trip_keeps_edge_array(tmp_path, write, read):
    path = str(tmp_path / "g")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_pairs)
    def check(case):
        g = Graph(*case)
        write(g, path)
        back = read(path)
        assert back.n == g.n and np.array_equal(back.edge_array, g.edge_array)

    check()


@pytest.mark.parametrize("pairs", [[(2, 2)], np.array([[2, 2]])])
def test_graph_errors_show_plain_ints(pairs):
    with pytest.raises(ParameterError, match=r"^self-loop \(2, 2\)$"):
        Graph(4, pairs)
    bad = np.array([[1, 7]]) if isinstance(pairs, np.ndarray) else [(7, 1)]
    with pytest.raises(ParameterError,
                       match=r"^edge \(1, 7\) out of range for n=4$"):
        Graph(4, bad)


@pytest.mark.parametrize("n", [-1, 3.5, 2 ** 62])
def test_graph_vertex_count_must_be_a_bounded_integer(n):
    with pytest.raises(ParameterError, match="vertex count"):
        Graph(n, [(0, 1)])


HUGE = 10 ** 20


@pytest.mark.parametrize("build, fragment", [
    (lambda: complete(HUGE), "complete n must be at most 3037000499"),
    (lambda: cycle(HUGE), "cycle length must be at most 3037000499"),
    (lambda: odd_wheel(HUGE + 1), "cycle length must be at most"),
    (lambda: circulant(HUGE, 2), "circulant p must be at most"),
    (lambda: circulant(7, HUGE), "circulant q must be at most"),
    (lambda: circle_star(HUGE, 0.1), "circle-star n must be at most"),
    (lambda: circle_star_points(HUGE, 0.1), "circle-star n must be at most"),
    (lambda: complete(10 ** 5000), "complete n must be at most"),
    (lambda: complete(2.5), "complete n must be an integer, got 2.5"),
    (lambda: circulant(7.5, 2), "circulant p must be an integer, got 7.5"),
])
def test_generator_counts_are_bounded_integers(build, fragment):
    # a count no Graph can hold is refused before its edges are built
    with pytest.raises(ParameterError, match="^" + re.escape(fragment)):
        build()
