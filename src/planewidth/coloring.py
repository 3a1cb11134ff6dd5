"""Proper colorings plus the exact combinatorial solvers feeding the bounds.

Max clique (over bitset adjacency, as Python ints) and chromatic number are
branch and bound, deterministic given the vertex order: ties always go to
the lowest-index vertex and the lowest color.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graphs import ParameterError, complement, induced_subgraph


class ImproperColoringError(ValueError):
    """Carries a monochromatic edge as a certificate."""

    def __init__(self, edge):
        self.edge = edge
        super().__init__("monochromatic edge %r" % (edge,))


@dataclass(frozen=True)
class Coloring:
    colors: tuple
    k: int

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))
        if self.colors and max(self.colors) >= self.k:
            raise ParameterError("color index exceeds k")
        if any(c < 0 for c in self.colors):
            raise ParameterError("negative color")


def coloring_from_list(colors):
    colors = list(colors)
    k = (max(colors) + 1) if colors else 0
    return Coloring(tuple(colors), k)


def check_proper(g, c):
    """Return the first monochromatic edge in sorted order, or None."""
    colors = np.asarray(c.colors, dtype=np.intp)[g.edge_array]
    bad = np.flatnonzero(colors[:, 0] == colors[:, 1])
    return tuple(g.edge_array[bad[0]].tolist()) if len(bad) else None


def require_proper(g, c):
    bad = check_proper(g, c)
    if bad is not None:
        raise ImproperColoringError(bad)


def write_coloring(c, path):
    with open(path, "w") as fh:
        for v, col in enumerate(c.colors):
            fh.write("%d %d\n" % (v, col))


def read_coloring(path):
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            v, col = line.split()
            pairs.append((int(v), int(col)))
    pairs.sort()
    return coloring_from_list([col for _, col in pairs])


# ---------------------------------------------------------------------------
# Maximum clique


def max_clique(g):
    """A maximum clique as a sorted vertex list.

    Branch and bound: candidates are greedily colored and the color count
    bounds the clique extension, pruning subtrees that cannot beat the
    incumbent.
    """
    if g.n == 0:
        return []
    adj = [0] * g.n                 # bitset adjacency
    for u, v in g.edge_array.tolist():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = []

    def color_sort(cand_mask):
        # Greedy coloring of the candidate set; returns vertices ordered so
        # that the color number (1-based) is an upper bound on the clique
        # size achievable from that vertex onward.
        order, bounds = [], []
        color = 0
        rest = cand_mask
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~((1 << v) | adj[v])
                rest &= ~(1 << v)
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(clique, cand_mask):
        nonlocal best
        order, bounds = color_sort(cand_mask)
        for i in range(len(order) - 1, -1, -1):
            if len(clique) + bounds[i] <= len(best):
                return
            v = order[i]
            clique.append(v)
            sub = cand_mask & adj[v]
            if sub:
                expand(clique, sub)
            elif len(clique) > len(best):
                best = list(clique)
            clique.pop()
            cand_mask &= ~(1 << v)

    expand([], (1 << g.n) - 1)
    return sorted(best)


# ---------------------------------------------------------------------------
# Chromatic number


@dataclass(frozen=True)
class ChromaticResult:
    lower: int
    upper: int
    coloring: Coloring          # witness for the upper bound
    exact: bool
    omega: int                  # maximum clique size

    @property
    def chi(self):
        return self.upper if self.exact else None


def greedy_dsatur(g):
    """DSATUR heuristic coloring; deterministic."""
    if g.n == 0:
        return coloring_from_list([])
    adj = g.adjacency()
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
    return coloring_from_list(colors)


class _Timeout(Exception):
    pass


def _exact_chromatic(g, lower, upper_coloring, deadline):
    """DSATUR-ordered branch and bound; may raise _Timeout."""
    n = g.n
    adj = g.adjacency()
    best_k = upper_coloring.k
    best_colors = list(upper_coloring.colors)
    colors = [-1] * n
    # forbidden[v] = bitmask of colors unusable at v
    forbidden = [0] * n

    def choose():
        pick, key = -1, None
        for v in range(n):
            if colors[v] >= 0:
                continue
            k = (bin(forbidden[v]).count("1"), len(adj[v]), -v)
            if key is None or k > key:
                pick, key = v, k
        return pick

    calls = 0

    def branch(used):
        nonlocal best_k, best_colors, calls
        calls += 1
        if calls % 2048 == 0 and time.monotonic() > deadline:
            raise _Timeout
        if used >= best_k:
            return
        v = choose()
        if v < 0:
            best_k = used
            best_colors = list(colors)
            return
        limit = min(used + 1, best_k - 1)
        for c in range(limit):
            if forbidden[v] >> c & 1:
                continue
            colors[v] = c
            touched = []
            for w in adj[v]:
                if colors[w] < 0 and not (forbidden[w] >> c & 1):
                    forbidden[w] |= 1 << c
                    touched.append(w)
            branch(max(used, c + 1))
            for w in touched:
                forbidden[w] &= ~(1 << c)
            colors[v] = -1
            if best_k <= lower:
                return

    branch(0)
    return best_k, best_colors


def chromatic_number(g, budget=10.0):
    """Exact chromatic number within a time budget.

    Universal vertices are peeled first (each adds exactly one color).  The
    lower bound is max(clique size, ceil(n / independence number)).  On
    timeout the result carries the best (lower, upper) pair plus a witness
    coloring for the upper bound.
    """
    if g.n == 0:
        return ChromaticResult(0, 0, coloring_from_list([]), True, 0)
    if g.m == 0:
        return ChromaticResult(1, 1, coloring_from_list([0] * g.n), True, 1)

    # peel universal vertices
    universal = np.bincount(g.edge_array.ravel(), minlength=g.n) == g.n - 1
    if universal.any():
        sub = chromatic_number(induced_subgraph(g, ~universal), budget)
        shift = int(universal.sum())
        colors = np.empty(g.n, dtype=np.intp)
        colors[universal] = np.arange(shift)
        colors[~universal] = shift + np.array(sub.coloring.colors, dtype=int)
        witness = Coloring(colors.tolist(), shift + sub.coloring.k)
        return ChromaticResult(sub.lower + shift, sub.upper + shift,
                               witness, sub.exact, sub.omega + shift)

    omega = len(max_clique(g))
    alpha = len(max_clique(complement(g)))
    lower = max(omega, math.ceil(g.n / alpha) if alpha else 1)
    greedy = greedy_dsatur(g)
    if greedy.k <= lower:
        return ChromaticResult(greedy.k, greedy.k, greedy, True, omega)

    deadline = time.monotonic() + budget
    try:
        best_k, best_colors = _exact_chromatic(g, lower, greedy, deadline)
        return ChromaticResult(best_k, best_k,
                               Coloring(tuple(best_colors), best_k), True,
                               omega)
    except _Timeout:
        return ChromaticResult(lower, greedy.k, greedy, False, omega)
