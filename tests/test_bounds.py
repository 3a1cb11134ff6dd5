"""Certified interval engine: lower/upper mechanisms and compositions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planewidth import bounds as bounds_mod, realization as realization_mod
from planewidth.bounds import (
    LATTICE_RATIO, BoundReport, compose_report, kn_lower, kn_upper,
    pw_interval,
)
from planewidth.coloring import chromatic_number
from planewidth.graphs import (
    ParameterError, circulant, circle_star, complement, complete, compose,
    cycle, double_subdivide, graph_from_edges, groetzsch, odd_wheel, petersen,
)
from planewidth.realization import (
    Realization, evaluate, known_complete_arrangement, union_realization,
)
from planewidth.graphs import circle_star_points, disjoint_union

from conftest import random_graph

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)
PHI = (1 + math.sqrt(5)) / 2

# additive constant of the lattice construction, measured once over n <= 200
C_MEASURED = 0.2865


def test_kn_lower_table_and_formula():
    assert kn_lower(7) == 2.0
    assert kn_lower(8) == pytest.approx(1 / (2 * math.sin(math.pi / 14)),
                                        abs=1e-15)
    assert kn_lower(16) == pytest.approx(
        math.sqrt(2 * SQRT3 / math.pi * 16) - 1, abs=1e-12)
    with pytest.raises(ParameterError):
        kn_lower(1)


def test_kn_lower_nondecreasing():
    prev = 0.0
    for n in range(2, 60):
        cur = kn_lower(n)
        assert cur >= prev - 1e-12
        prev = cur


def test_kn_bounds_sandwich():
    for n in (2, 5, 8, 12, 30, 100):
        assert kn_lower(n) <= kn_upper(n) + 1e-9
    assert kn_upper(7) == 2.0
    # construction tracks the asymptote with a bounded additive constant
    for n in (50, 120, 200):
        assert kn_upper(n) <= LATTICE_RATIO * math.sqrt(n) + C_MEASURED


def test_interval_k5_tight():
    rep = pw_interval(complete(5))
    assert rep.lower == pytest.approx(PHI, abs=1e-12)
    assert rep.upper == pytest.approx(PHI, abs=1e-12)
    assert "clique-table" in rep.lower_provenance
    assert "coloring" in rep.upper_provenance


def test_interval_petersen():
    rep = pw_interval(petersen())
    assert rep.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.upper == pytest.approx(1.0, abs=1e-12)


def test_interval_k4_and_wheels_band():
    for g in (complete(4), odd_wheel(5), odd_wheel(7), odd_wheel(11)):
        rep = pw_interval(g)
        assert rep.lower > 2 / SQRT3 - 1e-12
        assert rep.upper <= SQRT2 + 1e-12


def test_interval_k5_to_k7_band():
    for n in (5, 6, 7):
        rep = pw_interval(complete(n))
        assert SQRT2 < rep.lower <= rep.upper <= 2.0 + 1e-12


def test_interval_bipartite():
    g = graph_from_edges(6, [(0, 3), (0, 4), (1, 3), (2, 5), (1, 5)])
    rep = pw_interval(g)
    assert rep.lower == 1.0 and rep.upper == pytest.approx(1.0, abs=1e-12)
    assert "edge" in rep.lower_provenance


def test_groetzsch_threshold_strict():
    rep = pw_interval(groetzsch())
    assert rep.lower == pytest.approx(2 / SQRT3, abs=1e-12)
    assert rep.lower_strict
    assert "chi-threshold" in rep.lower_provenance


def test_circle_star_lower_and_witness():
    g = circle_star(4, 0.1)
    pts = list(circle_star_points(4, 0.1)) + [(0.0, 0.0)]
    witness = Realization(tuple(pts))
    rep = pw_interval(g, witness=witness)
    assert rep.lower >= 2.0 - 1e-12
    assert rep.lower_strict
    assert rep.upper <= 2.1 + 1e-6
    assert "witness" in rep.upper_provenance


def test_circular_upper():
    g = circulant(25, 4)
    angles = [2 * math.pi * i / 25 for i in range(25)]
    rep = pw_interval(g, circular=(angles, 25 / 4))
    assert rep.upper <= 1 / math.sin(4 * math.pi / 25) + 1e-9
    # the 7-coloring target (width 2) beats the circular cap here, so the
    # winning mechanism is the coloring; the circular bound still holds
    assert "coloring" in rep.upper_provenance
    assert rep.upper <= 2.0 + 1e-9


def test_circular_placement_evaluated_once(monkeypatch):
    # from_circular certifies its placement with evaluate; pw_interval reads
    # the width of that placement without a second pass over the edges
    calls = []

    def counted(g, r, tol=1e-9):
        calls.append(r)
        return evaluate(g, r, tol)

    monkeypatch.setattr(bounds_mod, "evaluate", counted)
    monkeypatch.setattr(realization_mod, "evaluate", counted)
    g = circulant(7, 2)
    rep = pw_interval(g, circular=([2 * math.pi * i / 7 for i in range(7)], 3.5))
    assert len(calls) == 2
    assert rep.upper_provenance == ("circular",)
    assert rep.upper == evaluate(g, rep.upper_witness).width


def test_optimizer_mechanism_can_win():
    g = odd_wheel(5)
    rep = pw_interval(g, opt_restarts=8, opt_seed=0)
    assert rep.upper <= SQRT2 + 1e-9
    assert rep.lower <= rep.upper + 1e-9


def test_invalid_witness_rejected():
    g = complete(3)
    bad = Realization(((0.0, 0.0), (0.2, 0.0), (0.0, 0.2)))
    with pytest.raises(ParameterError):
        pw_interval(g, witness=bad)


def test_report_json_keys():
    rep = pw_interval(complete(4))
    obj = rep.to_json_dict()
    assert set(obj) == {"lower", "lower_strict", "upper",
                        "lower_provenance", "upper_provenance"}
    assert isinstance(obj["lower_provenance"], list)


def test_chi_timeout_degrades():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 40, 0.5)
    rep = pw_interval(g, chi_budget=0.0)
    assert rep.lower <= rep.upper + 1e-9
    assert "chi-timeout" in rep.lower_provenance


def test_compose_union_c5():
    c5 = cycle(5)
    rep5 = pw_interval(c5)
    rep = compose_report("disjoint-union", c5, c5, rep5, rep5)
    assert rep.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.upper <= 2 / SQRT3 + 1e-9
    # the union construction itself achieves the hexagon-overlay cap
    ru = union_realization(c5, c5, rep5.upper_witness, rep5.upper_witness)
    wu = evaluate(disjoint_union(c5, c5), ru).width
    assert wu <= max(1.0, 1.0, 2 / SQRT3) + 1e-9


def test_compose_join_and_product():
    k2 = complete(2)
    rep2 = pw_interval(k2)
    repj = compose_report("join", k2, k2, rep2, rep2)
    # join(K2, K2) is K4, whose coloring bound sqrt(2) beats the chain bound
    assert repj.upper <= SQRT2 + 1e-9
    assert repj.lower == pytest.approx(SQRT2, abs=1e-12)
    repp = compose_report("cartesian", k2, k2, rep2, rep2)
    assert repp.upper <= 1.0 + 1e-9          # C4 is bipartite
    with pytest.raises(ParameterError):
        compose_report("nope", k2, k2, rep2, rep2)


def test_subdivision_sandwich():
    corpus = [complete(4), complete(5), odd_wheel(5), petersen()]
    for g in corpus:
        e = g.sorted_edges()[0]
        gp = double_subdivide(g, e)
        rep = pw_interval(g)
        repp = pw_interval(gp)
        assert repp.upper <= rep.upper + 1e-9
        assert repp.lower >= rep.lower - 1.0 - 1e-9


def test_band_consistency_random():
    rng = np.random.default_rng(404)
    for _ in range(12):
        g = random_graph(rng, int(rng.integers(4, 13)), 0.5)
        if g.m == 0:
            continue
        chrom = chromatic_number(g)
        if not chrom.exact:
            continue
        rep = pw_interval(g)
        chi = chrom.chi
        if chi <= 3:
            assert rep.upper <= 2 / SQRT3 + 1e-9
        elif chi == 4:
            assert rep.lower > 2 / SQRT3 - 1e-12
            assert rep.upper <= SQRT2 + 1e-9
        elif chi <= 7:
            assert rep.lower > SQRT2 - 1e-12
            assert rep.upper <= 2.0 + 1e-9
        else:
            assert rep.lower >= 2.0 - 1e-12


def test_complement_pair_inequality():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        n = int(rng.integers(6, 41))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.8)))
        co = complement(g)
        if g.m == 0 or co.m == 0:
            continue
        a = pw_interval(g, chi_budget=0.3)
        b = pw_interval(co, chi_budget=0.3)
        bound = 2 * math.sqrt(SQRT3 / math.pi) * math.sqrt(n) + C_MEASURED
        assert a.upper + b.upper <= bound + 1e-9
        checked += 1


@st.composite
def _small_graphs(draw):
    """A graph on 2..8 vertices with at least one edge."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return graph_from_edges(n, [e for e, k in zip(pairs, keep) if k]
                            or [(0, 1)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_graphs(), _small_graphs())
def test_lower_at_most_upper(g, h):
    rep_g, rep_h = pw_interval(g), pw_interval(h)
    kinds = ("join", "cartesian", "disjoint-union")
    reports = [(g, rep_g), (h, rep_h)] + [
        (compose(kind, g, h), compose_report(kind, g, h, rep_g, rep_h))
        for kind in kinds]
    for graph, rep in reports:
        assert rep.lower <= rep.upper
        ev = evaluate(graph, rep.upper_witness)
        assert ev.valid and ev.width == rep.upper
