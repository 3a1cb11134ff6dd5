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


class _Timeout(Exception):
    pass


def max_clique(g, deadline=None):
    """A maximum clique as a sorted vertex list.

    Branch and bound: candidates are greedily colored and the color count
    bounds the clique extension, pruning subtrees that cannot beat the
    incumbent.  With a ``deadline`` (a ``time.monotonic()`` value) the clock
    is read every 1024 expansions, once an incumbent exists, and the search
    stops past it with the largest clique found so far: a maximal clique,
    of two or more vertices when g has an edge.
    """
    if g.n == 0:
        return []
    adj = [0] * g.n                 # bitset adjacency
    for u, v in g.edge_array.tolist():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = []
    calls = 0

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
        nonlocal best, calls
        calls += 1
        if (deadline is not None and best and calls % 1024 == 0
                and time.monotonic() > deadline):
            raise _Timeout
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

    try:
        expand([], (1 << g.n) - 1)
    except _Timeout:
        pass
    return sorted(best)


# ---------------------------------------------------------------------------
# Chromatic number


@dataclass(frozen=True)
class ChromaticResult:
    lower: int
    upper: int
    coloring: Coloring          # witness for the upper bound
    exact: bool
    omega: int                  # largest clique found (the maximum
                                # unless the budget ran out)

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


def _greedy_independent_set(adj):
    """An independent set, built by taking the live vertex with the fewest
    live neighbours (ties to the lowest index) until none is left.

    Its size bounds the independence number from below, so ceil(n / size)
    bounds ceil(n / alpha) from above: it says when alpha cannot help, and
    is never a lower bound on the chromatic number itself.
    """
    live = set(range(len(adj)))
    degree = [len(a) for a in adj]
    chosen = []
    while live:
        v = min(live, key=lambda w: (degree[w], w))
        chosen.append(v)
        gone = (adj[v] & live) | {v}
        live -= gone
        for u in gone:
            for w in adj[u] & live:
                degree[w] -= 1
    return chosen


def _exact_chromatic(adj, lower, upper_coloring, deadline):
    """DSATUR-ordered branch and bound; may raise _Timeout.

    The next vertex has the most distinct colors among its neighbours, then
    the highest degree, then the lowest index.  key[v] packs that order into
    one int, sat[v] * n + rank[v]: sat[v], the number of colors forbidden at
    v, moves by one (key[v] by n) wherever a bit of forbidden[v] is set or
    cleared, so no choice counts bits.
    """
    n = len(adj)
    best_k = upper_coloring.k
    best_colors = list(upper_coloring.colors)
    colors = [-1] * n               # read only once every vertex is colored
    # forbidden[v] = bitmask of colors unusable at v
    forbidden = [0] * n
    key = [0] * n
    for rank, v in enumerate(sorted(range(n), key=lambda v: (len(adj[v]), -v))):
        key[v] = rank
    uncolored = set(range(n))
    calls = 0

    def branch(used):
        nonlocal best_k, best_colors, calls
        calls += 1
        if calls % 2048 == 0 and time.monotonic() > deadline:
            raise _Timeout
        if used >= best_k:
            return
        if not uncolored:
            best_k = used
            best_colors = list(colors)
            return
        v = max(uncolored, key=key.__getitem__)
        uncolored.remove(v)
        limit = min(used + 1, best_k - 1)
        for c in range(limit):
            bit = 1 << c
            if forbidden[v] & bit:
                continue
            colors[v] = c
            touched = [w for w in adj[v]
                       if w in uncolored and not forbidden[w] & bit]
            for w in touched:
                forbidden[w] |= bit
                key[w] += n
            branch(max(used, c + 1))
            for w in touched:
                forbidden[w] &= ~bit
                key[w] -= n
            if best_k <= lower:
                break
        uncolored.add(v)

    branch(0)
    return best_k, best_colors


def chromatic_number(g, budget=10.0):
    """Exact chromatic number within a time budget.

    The budget bounds the whole solve: the clique, independence-number and
    coloring searches share one deadline.  Universal vertices are peeled
    first (each adds exactly one color).  The lower bound is the clique
    size, raised to ceil(n / independence number) when a greedy independent
    set leaves room for that to be larger and the independence-number search
    ends in time.  On timeout the result carries the best (lower, upper)
    pair plus a witness coloring for the upper bound; ``exact`` says whether
    the two were proven equal.
    """
    return _chromatic(g, time.monotonic() + budget)


def _chromatic(g, deadline):
    if g.n == 0:
        return ChromaticResult(0, 0, coloring_from_list([]), True, 0)
    if g.m == 0:
        return ChromaticResult(1, 1, coloring_from_list([0] * g.n), True, 1)

    # peel universal vertices
    universal = np.bincount(g.edge_array.ravel(), minlength=g.n) == g.n - 1
    if universal.any():
        sub = _chromatic(induced_subgraph(g, ~universal), deadline)
        shift = int(universal.sum())
        colors = np.empty(g.n, dtype=np.intp)
        colors[universal] = np.arange(shift)
        colors[~universal] = shift + np.array(sub.coloring.colors, dtype=int)
        witness = Coloring(colors.tolist(), shift + sub.coloring.k)
        return ChromaticResult(sub.lower + shift, sub.upper + shift,
                               witness, sub.exact, sub.omega + shift)

    adj = g.adjacency()
    omega = lower = len(max_clique(g, deadline))
    if math.ceil(g.n / len(_greedy_independent_set(adj))) > omega:
        alpha = len(max_clique(complement(g), deadline))
        # a cut search gives an independent set, not alpha: no bound then
        if time.monotonic() <= deadline:
            lower = max(omega, math.ceil(g.n / alpha))
    greedy = greedy_dsatur(g)
    if greedy.k <= lower:
        return ChromaticResult(greedy.k, greedy.k, greedy, True, omega)

    try:
        best_k, best_colors = _exact_chromatic(adj, lower, greedy, deadline)
        return ChromaticResult(best_k, best_k,
                               Coloring(tuple(best_colors), best_k), True,
                               omega)
    except _Timeout:
        return ChromaticResult(lower, greedy.k, greedy, False, omega)
