"""Colorings, max clique, and the exact chromatic number solver."""

import itertools

import numpy as np
import pytest

from planewidth.coloring import (
    Coloring, ImproperColoringError, check_proper, chromatic_number,
    coloring_from_list, greedy_dsatur, max_clique, read_coloring,
    require_proper, write_coloring,
)
from planewidth.graphs import (
    circulant, circle_star, complement, complete, cycle, graph_from_edges,
    groetzsch, join, odd_wheel, petersen,
)

from conftest import random_graph


def test_coloring_value_checks():
    c = coloring_from_list([0, 1, 0])
    assert c.k == 2
    with pytest.raises(ValueError):
        Coloring((0, 3), 2)


def test_check_proper():
    g = cycle(4)
    assert check_proper(g, coloring_from_list([0, 1, 0, 1])) is None
    assert check_proper(g, coloring_from_list([0, 0, 1, 1])) == (0, 1)
    with pytest.raises(ImproperColoringError) as ei:
        require_proper(g, coloring_from_list([0, 0, 1, 1]))
    assert ei.value.edge == (0, 1)


def test_coloring_file_round_trip(tmp_path):
    c = coloring_from_list([2, 0, 1, 1])
    path = str(tmp_path / "c.txt")
    write_coloring(c, path)
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].split() == ["0", "2"]
    assert read_coloring(path).colors == c.colors


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
            assert g.has_edge(u, v)


def test_max_clique_circulant_25_4():
    g = circulant(25, 4)
    q = max_clique(g)
    assert len(q) == 6
    # independent confirmation: 0,4,8,12,16,20 is a clique and no 7-clique
    witness = [0, 4, 8, 12, 16, 20]
    for u, v in itertools.combinations(witness, 2):
        assert g.has_edge(u, v)
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


def test_complement_chromatic_sanity():
    # chi(G) + chi(co-G) <= n + 1 on exactly colored graphs
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_graph(rng, 12, 0.5)
        a = chromatic_number(g)
        b = chromatic_number(complement(g))
        assert a.exact and b.exact
        assert a.chi + b.chi <= g.n + 1
