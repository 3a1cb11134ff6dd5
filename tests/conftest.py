"""Shared helpers for the test suite."""

import numpy as np

from planewidth.graphs import Graph


def random_graph(rng, n, p=0.5):
    """Erdos-Renyi graph with a deterministic edge set from rng."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, frozenset((u, v) for u, v in edges))


#: chi 3 on 11 vertices, while greedy DSATUR uses 4 colors
CHI3_GREEDY4_EDGES = [(0, 1), (0, 2), (0, 6), (1, 4), (1, 8), (1, 9), (2, 6),
                      (2, 7), (3, 4), (3, 5), (3, 7), (4, 7), (4, 8), (5, 7),
                      (6, 7), (7, 9), (7, 10), (8, 9), (8, 10)]


def chi3_copies(k):
    """k disjoint copies of the CHI3_GREEDY4_EDGES graph: an exact coloring
    search on them goes one level deeper for each of the 11 * k vertices."""
    return Graph(11 * k, [(u + 11 * i, v + 11 * i) for i in range(k)
                          for u, v in CHI3_GREEDY4_EDGES])


def random_connected_graph(rng, n, p=0.5):
    """Random graph forced connected by adding a random spanning path."""
    g = random_graph(rng, n, p)
    order = rng.permutation(n)
    extra = set(g.edges)
    for a, b in zip(order[:-1], order[1:]):
        a, b = int(a), int(b)
        extra.add((min(a, b), max(a, b)))
    return Graph(n, frozenset(extra))


def random_unit_diameter_points(rng, n):
    """Points with diameter scaled to be exactly <= 1."""
    pts = rng.uniform(-0.5, 0.5, size=(n, 2))
    d = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = max(d, float(np.hypot(*(pts[i] - pts[j]))))
    if d > 1.0:
        pts = pts / d
    return pts
