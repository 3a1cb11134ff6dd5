"""Geometric partitions of unit-diameter sets and tiling colorings."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from planewidth.coloring import check_proper
from planewidth.geometry import diameter
from planewidth.graphs import complete, cycle, graph_from_edges
from planewidth.partition import (
    SCHEME_DELTA, SCHEME_THRESHOLD, PartitionPreconditionError,
    _nearest_hex_cell, extract_coloring, partition_unit, tiling_color_cap,
    tiling_coloring, tiling_parameter,
)
from planewidth.realization import (
    Realization, evaluate, known_complete_arrangement,
    lattice_complete_arrangement, realization_from_array,
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
        labels = partition_unit(np.array([[0.2, -0.1]]), scheme)
        assert len(labels) == 1


def test_partition_rejects_wide_input():
    pts = np.array([[0.0, 0.0], [1.5, 0.0]])
    with pytest.raises(PartitionPreconditionError):
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
    with pytest.raises(PartitionPreconditionError) as ei:
        extract_coloring(k4, r4, 3)
    assert ei.value.threshold == pytest.approx(2 / math.sqrt(3))
    k8 = complete(8)
    with pytest.raises(PartitionPreconditionError):
        extract_coloring(k8, known_complete_arrangement(8), 7)


def test_extract_coloring_random_proper():
    rng = np.random.default_rng(55)
    done = 0
    while done < 60:
        n = int(rng.integers(4, 12))
        g = random_graph(rng, n, 0.3)
        pts = rng.uniform(0, 1.8, size=(n, 2))
        r = realization_from_array(pts)
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
        r = realization_from_array(rng.uniform(0, 3, size=(n, 2)))
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
    pts = r.array()
    w, _ = diameter(pts)
    assert w >= 50.0
    g = cycle(2600)
    c, t = tiling_coloring(g, r)
    assert check_proper(g, c) is None
    assert c.k <= tiling_color_cap(t)
    assert tiling_color_cap(t) < ((2 / math.sqrt(3) + 0.1) * w) ** 2


def test_tiling_zero_width_single_cell():
    g = graph_from_edges(2, [])
    r = Realization(((0.5, 0.5), (0.5, 0.5)))
    c, t = tiling_coloring(g, r)
    assert c.k == 1 and t == 1


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
    assert _nearest_hex_cell(frac) == dist[0][1]
