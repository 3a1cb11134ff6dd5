"""Colorings, max clique, and the exact chromatic number solver."""

import importlib
import itertools
import math
import os
import sys
import time

import numpy as np
import pytest

from planewidth.bounds import pw_interval
from planewidth.coloring import (
    Coloring, ImproperColoringError, _clique, _masks, check_proper,
    chromatic_number, greedy_dsatur, max_clique, require_proper,
    write_coloring,
)
from planewidth.graphs import (
    Graph, ParameterError, circulant, circle_star, complement, complete, cycle,
    disjoint_union, generate, graph_from_edges, groetzsch, join, odd_wheel,
    petersen,
)

from conftest import chi3_copies, random_graph


def test_coloring_value_checks():
    c = Coloring([0, 1, 0])
    assert c.k == 2 and c.colors == (0, 1, 0)
    with pytest.raises(ParameterError):
        Coloring((0, -1))


def test_coloring_k_is_largest_color_plus_one():
    assert Coloring(()).k == 0
    assert Coloring((0, 3)).k == 4
    assert Coloring(np.array([2, 0, 1, 1])).k == 3
    rng = np.random.default_rng(41)
    for _ in range(20):
        colors = rng.integers(0, 9, size=int(rng.integers(1, 12)))
        assert Coloring(colors.tolist()).k == colors.max() + 1


def test_check_proper():
    g = cycle(4)
    assert check_proper(g, Coloring([0, 1, 0, 1])) is None
    assert check_proper(g, Coloring([0, 0, 1, 1])) == (0, 1)
    with pytest.raises(ImproperColoringError) as ei:
        require_proper(g, Coloring([0, 0, 1, 1]))
    assert ei.value.witness == (0, 1)


def test_coloring_file_round_trip(tmp_path):
    c = Coloring([2, 0, 1, 1])
    path = str(tmp_path / "c.txt")
    write_coloring(c, path)
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].split() == ["0", "2"]
    back = np.loadtxt(path, dtype=np.int64).reshape(-1, 2)
    assert back[:, 0].tolist() == [0, 1, 2, 3]
    assert Coloring(back[:, 1].tolist()) == c


def test_max_clique_basics():
    assert len(max_clique(complete(5))) == 5
    assert len(max_clique(cycle(5))) == 2
    assert len(max_clique(petersen())) == 2
    assert len(max_clique(complete(0))) == 0


def test_max_clique_is_a_clique():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, 14, 0.6)
        q = max_clique(g)
        for u, v in itertools.combinations(sorted(q), 2):
            assert (u, v) in g.edges


def test_max_clique_circulant_25_4():
    g = circulant(25, 4)
    q = max_clique(g)
    assert len(q) == 6
    # independent confirmation: 0,4,8,12,16,20 is a clique and no 7-clique
    witness = [0, 4, 8, 12, 16, 20]
    for u, v in itertools.combinations(witness, 2):
        assert (u, v) in g.edges
    # each vertex has 18 neighbours; a 7-clique needs 7 vertices pairwise at
    # circular distance in [4, 21], impossible since 7*4 > 25
    gaps_needed = 7 * 4
    assert gaps_needed > 25


def test_greedy_dsatur_proper():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_graph(rng, 16, 0.5)
        c = greedy_dsatur(g)
        assert check_proper(g, c) is None
    assert greedy_dsatur(graph_from_edges(0, [])) == Coloring(())


def _adjacency_sets(g):
    """One Python set of neighbours per vertex, for the reference loops."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edge_array.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _reference_greedy_dsatur(g):
    """DSATUR as a loop over Python sets: the uncolored vertex with the
    most distinct neighbour colors, then the highest degree, then the lowest
    index, takes the lowest color not among its neighbours'."""
    adj = _adjacency_sets(g)
    colors = [-1] * g.n
    sat = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = max((w for w in range(g.n) if colors[w] < 0),
                key=lambda w: (len(sat[w]), len(adj[w]), -w))
        c = 0
        while c in sat[v]:
            c += 1
        colors[v] = c
        for w in adj[v]:
            sat[w].add(c)
    return tuple(colors)


def test_greedy_dsatur_matches_reference_loop():
    rng = np.random.default_rng(1979)
    graphs = [random_graph(rng, int(rng.integers(0, 50)),
                           float(rng.uniform(0.0, 1.0))) for _ in range(150)]
    graphs += [chi3_copies(3), petersen(), groetzsch(), circulant(25, 4)]
    for g in graphs:
        assert greedy_dsatur(g).colors == _reference_greedy_dsatur(g), g


def test_deep_coloring_search_does_not_recurse():
    # 1,210 vertices: one search level per vertex, past Python's default
    # recursion limit of 1,000 frames
    g = chi3_copies(110)
    assert greedy_dsatur(g).k == 4
    res = chromatic_number(g)
    assert (res.lower, res.upper, res.exact, res.omega) == (3, 3, True, 3)
    assert check_proper(g, res.coloring) is None


def test_deep_clique_search_does_not_recurse():
    q = max_clique(disjoint_union(complete(1000), complete(2)))
    assert q == list(range(1000))


def test_zero_budget_keeps_the_best_coloring_found():
    # a cut search returns its best coloring so far, never worse than the
    # first leaf, which is the greedy coloring
    rng = np.random.default_rng(2048)
    graphs = [random_graph(rng, int(rng.integers(1, 70)),
                           float(rng.uniform(0.05, 0.95))) for _ in range(40)]
    graphs += [chi3_copies(110), chi3_copies(1)]
    for g in graphs:
        res = chromatic_number(g, budget=0.0)
        assert check_proper(g, res.coloring) is None
        assert res.coloring.k == res.upper <= greedy_dsatur(g).k, g
        assert res.lower <= res.upper


def test_chromatic_small_exact():
    assert chromatic_number(complete(6)).chi == 6
    assert chromatic_number(cycle(6)).chi == 2
    assert chromatic_number(cycle(7)).chi == 3
    assert chromatic_number(odd_wheel(5)).chi == 4
    assert chromatic_number(petersen()).chi == 3
    assert chromatic_number(groetzsch()).chi == 4


def test_chromatic_circulant_and_star():
    res = chromatic_number(circulant(25, 4))
    assert res.exact and res.chi == 7
    res = chromatic_number(circle_star(4, 0.1))
    assert res.exact and res.chi == 8


def test_chromatic_witness_always_proper():
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = random_graph(rng, 14, 0.5)
        res = chromatic_number(g)
        assert check_proper(g, res.coloring) is None
        assert res.coloring.k == res.upper
        assert res.lower <= res.upper


def test_chromatic_at_least_clique():
    rng = np.random.default_rng(9)
    for _ in range(15):
        g = random_graph(rng, 13, 0.5)
        assert chromatic_number(g).lower >= len(max_clique(g))


def test_chromatic_omega_is_max_clique():
    rng = np.random.default_rng(23)
    graphs = [random_graph(rng, int(rng.integers(1, 13)), p)
              for p in (0.2, 0.5, 0.8) for _ in range(8)]
    # universal vertices over a random, an edgeless and an empty core
    graphs += [join(complete(k), random_graph(rng, 7, 0.4)) for k in (1, 2, 3)]
    graphs += [join(complete(2), graph_from_edges(3, [])), complete(1),
               complete(2), complete(6)]
    graphs += [graph_from_edges(n, []) for n in (0, 1, 4)]
    for g in graphs:
        assert chromatic_number(g).omega == len(max_clique(g)), g


def test_chromatic_zero_budget_degrades_gracefully():
    rng = np.random.default_rng(42)
    g = random_graph(rng, 30, 0.5)
    res = chromatic_number(g, budget=0.0)
    assert res.lower <= res.upper
    assert check_proper(g, res.coloring) is None
    # with the full budget the exact value lands inside the degraded bounds
    full = chromatic_number(g, budget=30.0)
    assert full.exact
    assert res.lower <= full.chi <= res.upper


@pytest.mark.parametrize("budget", [math.nan, -1.0, -math.inf])
def test_chromatic_budget_must_be_nonnegative(budget):
    # a NaN deadline is never passed, so no search would ever be cut
    g = cycle(5)
    with pytest.raises(ParameterError):
        chromatic_number(g, budget=budget)
    with pytest.raises(ParameterError):
        pw_interval(g, chi_budget=budget)


def test_complement_chromatic_sanity():
    # chi(G) + chi(co-G) <= n + 1 on exactly colored graphs
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_graph(rng, 12, 0.5)
        a = chromatic_number(g)
        b = chromatic_number(complement(g))
        assert a.exact and b.exact
        assert a.chi + b.chi <= g.n + 1


# ---------------------------------------------------------------------------
# One deadline over the clique and coloring searches


def _mycielskian(g):
    """Mycielski's construction: a copy u' of each vertex u joined to the
    neighbours of u, and one apex joined to every copy.  It keeps the graph
    triangle-free and raises the chromatic number by one."""
    n, e = g.n, g.edge_array
    copies = np.arange(n) + n
    return Graph(2 * n + 1, np.concatenate([
        e, np.stack([e[:, 0], e[:, 1] + n], 1),
        np.stack([e[:, 1], e[:, 0] + n], 1),
        np.stack([copies, np.full(n, 2 * n)], 1)]))


@pytest.fixture(scope="module")
def mycielski_95():
    """M_7 on 95 vertices: K_2 under five Mycielskians, omega 2, chi 7.

    The coloring search has to rule out every coloring with 6 colors or
    fewer, far past any budget the tests give it."""
    g = complete(2)
    for _ in range(5):
        g = _mycielskian(g)
    assert (g.n, len(max_clique(g))) == (95, 2)
    return g


def test_budget_bounds_the_whole_solve(mycielski_95):
    g = mycielski_95
    t0 = time.monotonic()
    res = chromatic_number(g, budget=0.25)
    assert time.monotonic() - t0 <= 0.25 + 1.0
    assert not res.exact
    assert res.lower <= 7 <= res.upper
    assert check_proper(g, res.coloring) is None
    assert res.coloring.k == res.upper


def test_budget_bounds_the_independence_stage():
    # 330 disjoint Petersen graphs, 3,300 vertices, omega 2: the coloring
    # search alone proves chi 3 within the budget
    copies = np.arange(330)[:, None, None] * 10
    g = Graph(3300, (petersen().edge_array + copies).reshape(-1, 2))
    t0 = time.monotonic()
    res = chromatic_number(g, budget=0.25)
    assert time.monotonic() - t0 <= 0.25 + 1.0
    assert res.exact and res.chi == 3
    assert check_proper(g, res.coloring) is None
    assert res.coloring.k == res.upper


def test_pw_interval_budget_names_chi_timeout(mycielski_95):
    rep = pw_interval(mycielski_95, chi_budget=0.25)
    assert "chi-timeout" in rep.lower_provenance
    assert rep.lower <= rep.upper


def test_max_clique_deadline(mycielski_95):
    # the cut search still returns a clique of two or more vertices
    co = complement(mycielski_95)
    t0 = time.monotonic()
    q = _clique(_masks(co.n, co.edge_array), time.monotonic() - 1.0)
    assert time.monotonic() - t0 < 1.0
    assert len(q) >= 2 and q == sorted(q)
    for u, v in itertools.combinations(q, 2):
        assert (u, v) in co.edges
    # a generous deadline changes nothing; no deadline means maximum size
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 11)), 0.5)
        q = max_clique(g)
        assert _clique(_masks(g.n, g.edge_array),
                       time.monotonic() + 60.0) == q
        largest = max(k for k in range(g.n + 1)
                      for s in itertools.combinations(range(g.n), k)
                      if all((u, v) in g.edges
                             for u, v in itertools.combinations(s, 2)))
        assert len(q) == largest


# ---------------------------------------------------------------------------
# Soundness: the same results as the solver that always solves alpha


def _reference_chromatic(g):
    """(lower, upper, exact, omega, colors) from the solver as it stood
    before the independence-number skip: alpha always solved, saturation
    counted afresh at every choice, no deadline."""
    n = g.n
    if n == 0:
        return 0, 0, True, 0, ()
    if g.m == 0:
        return 1, 1, True, 1, (0,) * n
    universal = np.bincount(g.edge_array.ravel(), minlength=n) == n - 1
    if universal.any():
        keep = np.flatnonzero(~universal)
        label = {int(v): i for i, v in enumerate(keep)}
        sub = Graph(len(keep), [(label[u], label[v])
                                for u, v in g.edge_array.tolist()
                                if u in label and v in label])
        lo, up, exact, omega, sub_colors = _reference_chromatic(sub)
        shift = int(universal.sum())
        colors = [0] * n
        for i, v in enumerate(np.flatnonzero(universal).tolist()):
            colors[v] = i
        for v, c in zip(keep.tolist(), sub_colors):
            colors[v] = shift + c
        return lo + shift, up + shift, exact, omega + shift, tuple(colors)

    omega = len(max_clique(g))
    lower = max(omega, math.ceil(n / len(max_clique(complement(g)))))
    greedy = greedy_dsatur(g)
    if greedy.k <= lower:
        return greedy.k, greedy.k, True, omega, greedy.colors
    adj = _adjacency_sets(g)
    colors, forbidden = [-1] * n, [0] * n
    best = [greedy.k, list(greedy.colors)]

    def branch(used):
        if used >= best[0]:
            return
        free = [v for v in range(n) if colors[v] < 0]
        if not free:
            best[:] = [used, list(colors)]
            return
        v = max(free, key=lambda w: (bin(forbidden[w]).count("1"),
                                     len(adj[w]), -w))
        for c in range(min(used + 1, best[0] - 1)):
            if forbidden[v] >> c & 1:
                continue
            colors[v] = c
            touched = [w for w in adj[v]
                       if colors[w] < 0 and not forbidden[w] >> c & 1]
            for w in touched:
                forbidden[w] |= 1 << c
            branch(max(used, c + 1))
            for w in touched:
                forbidden[w] &= ~(1 << c)
            colors[v] = -1
            if best[0] <= lower:
                return

    branch(0)
    return best[0], best[0], True, omega, tuple(best[1])


def _as_tuple(res):
    return res.lower, res.upper, res.exact, res.omega, res.coloring.colors


@pytest.fixture(scope="module")
def workloads():
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
    sys.path.insert(0, bench)
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)


def test_matches_reference_on_random_graphs():
    rng = np.random.default_rng(808)
    graphs = [random_graph(rng, int(rng.integers(1, 41)),
                           float(rng.uniform(0.05, 0.9))) for _ in range(200)]
    # universal vertices, which G(n, p) almost never has: K_k joined to a
    # random core, first or spread by a vertex permutation
    for k in (1, 2, 3, 4):
        for permute in (False, True, True):
            g = join(complete(k), random_graph(rng, int(rng.integers(1, 26)),
                                               float(rng.uniform(0.1, 0.9))))
            if permute:
                g = Graph(g.n, rng.permutation(g.n)[g.edge_array])
            graphs.append(g)
    for g in graphs:
        assert _as_tuple(chromatic_number(g)) == _reference_chromatic(g), g


def test_matches_reference_on_certify_corpus(workloads):
    # the families and the G(n, p) sweep, relabelled as the benchmark's
    # certify workload does for its seed 7
    w = workloads
    graphs = []
    for i, (spec, _) in enumerate(w.CERTIFY_FAMILIES):
        base = generate(spec)
        edges, _ = w.relabel(base.edge_array, base.n, [7, i])
        graphs.append(Graph(base.n, edges))
    for j, (n, p, seed) in enumerate(w.CERTIFY_SWEEP):
        edges, _ = w.relabel(w.gnp_edges(n, p, seed), n,
                             [7, len(w.CERTIFY_FAMILIES) + j])
        graphs.append(Graph(n, edges))
    for g in graphs:
        assert _as_tuple(chromatic_number(g)) == _reference_chromatic(g), g


def test_chromatic_coloring_k_is_its_upper_bound(workloads):
    # the witness's color count was stored as the upper bound before k was
    # derived from the colors: every branch must still give the same k
    rng = np.random.default_rng(808)
    graphs = [random_graph(rng, int(rng.integers(1, 41)),
                           float(rng.uniform(0.05, 0.9))) for _ in range(60)]
    w = workloads
    graphs += [generate(spec) for spec, _ in w.CERTIFY_FAMILIES]
    graphs += [Graph(n, w.relabel(w.gnp_edges(n, p, seed), n, [7, j])[0])
               for j, (n, p, seed) in enumerate(w.CERTIFY_SWEEP)]
    graphs += [join(complete(2), graph_from_edges(3, [])), complete(1),
               complete(6), graph_from_edges(0, []), graph_from_edges(4, [])]
    for g in graphs:
        for budget in (10.0, 0.0):
            res = chromatic_number(g, budget=budget)
            assert res.coloring.k == res.upper, (g, budget)
            assert res.coloring.k == max(res.coloring.colors, default=-1) + 1


def _trap_graph():
    """chi 3, but a greedy minimum-degree independent set has 2 vertices,
    so ceil(n / |I|) = 4."""
    return graph_from_edges(7, [(0, 3), (0, 4), (0, 6), (1, 2), (1, 5),
                                (1, 6), (2, 3), (2, 5), (3, 6), (4, 5),
                                (4, 6)])


def test_greedy_independent_set_is_not_a_chi_bound():
    # A greedy set takes vertex 0 (degree 3, lowest index), which removes
    # 3, 4 and 6 and leaves the triangle 1, 2, 5: it ends with two vertices,
    # while {1, 3, 4} is independent.
    g = _trap_graph()
    assert not any((u, v) in g.edges for u, v in [(1, 3), (1, 4), (3, 4)])
    # ceil(n / 2) = 4 exceeds chi = 3: the triangle and a 3-coloring
    assert (1, 2) in g.edges and (1, 5) in g.edges and (2, 5) in g.edges
    assert check_proper(g, Coloring([1, 2, 0, 2, 2, 1, 0])) is None
    # DSATUR needs 4 colors, so a solver that took ceil(n / |I|) as a lower
    # bound would stop at the heuristic and report chi = 4
    assert greedy_dsatur(g).k == 4
    for budget in (0.0, 10.0):
        res = chromatic_number(g, budget=budget)
        assert res.lower <= 3
        assert res.exact and res.chi == 3
        assert check_proper(g, res.coloring) is None


def test_zero_budget_on_thousands_of_vertices_is_fast():
    # 6,600 vertices: the first clique and the first DSATUR leaf are
    # near-linear, so a zero budget ends well within a second
    g = chi3_copies(600)
    start = time.monotonic()
    res = chromatic_number(g, budget=0.0)
    assert time.monotonic() - start < 1.0
    assert check_proper(g, res.coloring) is None
    assert res.lower == 3 and res.upper == res.coloring.k


def test_matches_reference_past_four_planes_and_64_vertices(workloads):
    # K_14 v Groetzsch (chi 18) proves 17 colors too few with saturations
    # of 16 and more, in a fifth plane; G(70, 0.2) and sparse G(n, p) past
    # 64 vertices need more than one machine word per plane
    rng = np.random.default_rng(1964)
    graphs = [join(complete(14), groetzsch()),
              join(complete(3), disjoint_union(petersen(), petersen())),
              Graph(70, workloads.gnp_edges(70, 0.2, 70))]
    graphs += [random_graph(rng, int(rng.integers(65, 100)),
                            float(rng.uniform(0.03, 0.1))) for _ in range(6)]
    for g in graphs:
        assert _as_tuple(chromatic_number(g)) == _reference_chromatic(g), g
    assert chromatic_number(graphs[0]).chi == 18


def test_matches_reference_where_n_over_alpha_passes_omega():
    # chi > omega on each, so the coloring search must prove chi itself.
    # On all but the random graph, ceil(n / alpha) > omega too: a bound
    # that the independence number gives, and the search must prove alone.
    rng = np.random.default_rng(2028)
    co_petersen = complement(petersen())
    graphs = [complement(cycle(n)) for n in (7, 9, 21, 41)]
    graphs += [circulant(101, 10), circulant(97, 7),
               join(co_petersen, co_petersen),
               join(join(co_petersen, co_petersen), co_petersen)]
    for g in graphs:
        alpha = len(max_clique(complement(g)))
        assert math.ceil(g.n / alpha) > len(max_clique(g)), g
    graphs.append(random_graph(rng, 60, 0.9))
    for g in graphs:
        expected = _reference_chromatic(g)
        assert expected[1] > expected[3], g
        assert _as_tuple(chromatic_number(g)) == expected, g
