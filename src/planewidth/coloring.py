"""Proper colorings plus the exact combinatorial solvers feeding the bounds.

Max clique and chromatic number are branch and bound on explicit stacks over
vertex bitmasks (Python ints), deterministic given the vertex order: ties
always go to the lowest-index vertex and the lowest color.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graphs import CertificateError, ParameterError

CHI_BUDGET = 10.0       # default seconds for one whole chromatic solve


class ImproperColoringError(CertificateError):
    """Carries a monochromatic edge as a certificate."""

    def __init__(self, edge):
        super().__init__("monochromatic edge %r" % (edge,), witness=edge)


@dataclass(frozen=True)
class Coloring:
    """One color per vertex; the color count k is the largest color + 1."""

    colors: tuple

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))
        if any(c < 0 for c in self.colors):
            raise ParameterError("negative color")

    @property
    def k(self):
        return max(self.colors) + 1 if self.colors else 0


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


# ---------------------------------------------------------------------------
# Maximum clique


def _masks(n, pairs):
    """Bitmask adjacency of the vertex pairs: bit w of masks[v] is v ~ w."""
    adj = [0] * n
    for u, v in pairs.tolist():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def max_clique(g):
    """A maximum clique as a sorted vertex list."""
    return _clique(_masks(g.n, g.edge_array), None)


def _clique(adj, deadline, best=()):
    """max_clique on bitmask adjacency, from the incumbent clique ``best``.

    Branch and bound on an explicit stack of [candidates, order, bounds]
    frames: candidates are greedily colored and the color count bounds the
    clique extension, pruning subtrees that cannot beat the incumbent.  Past
    a ``deadline`` (a ``time.monotonic()`` value, or None), read at each new
    frame once there is an incumbent, it stops with the largest clique found:
    a maximal clique, of two or more vertices when there is an edge.
    """

    def frame(cand_mask):
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
        return [cand_mask, order, bounds]

    best, clique = list(best), []       # clique[i] spawned stack[i + 1]
    stack = [frame((1 << len(adj)) - 1)]
    while stack:
        top = stack[-1]
        cand_mask, order, bounds = top
        if not order or len(clique) + bounds[-1] <= len(best):
            stack.pop()
            del clique[-1:]             # the vertex that spawned it, if any
            continue
        v = order.pop()
        bounds.pop()
        top[0] = cand_mask & ~(1 << v)
        sub = cand_mask & adj[v]
        if not sub:
            if len(clique) + 1 > len(best):
                best = clique + [v]
            continue
        if deadline is not None and best and time.monotonic() > deadline:
            break
        clique.append(v)
        stack.append(frame(sub))
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
    """DSATUR heuristic coloring: the first leaf of the exact search."""
    return Coloring(_exact_chromatic(g, g.n, math.inf)[0])


def _greedy_independent_set(adj):
    """An independent set of the graph with bitmask adjacency ``adj``,
    built by taking the live vertex with the fewest live neighbours (ties to
    the lowest index) until none is left: the low bit of the lowest
    non-empty bucket[d], the bitmask of live vertices with d live
    neighbours.

    Its size bounds the independence number from below, so ceil(n / size)
    bounds ceil(n / alpha) from above: it says when alpha cannot help, and
    is never a lower bound on the chromatic number itself.
    """
    degree = [a.bit_count() for a in adj]
    bucket = [0] * (len(adj) + 1)
    for v, d in enumerate(degree):
        bucket[d] |= 1 << v
    live, chosen = (1 << len(adj)) - 1, []
    while live:
        # the scans cost O(n) in all: each pick removes d + 1 live vertices
        d = next(d for d, b in enumerate(bucket) if b)
        v = (bucket[d] & -bucket[d]).bit_length() - 1
        chosen.append(v)
        gone = (adj[v] | 1 << v) & live
        live ^= gone
        for u in _bits(gone):
            bucket[degree[u]] ^= 1 << u
            for w in _bits(adj[u] & live):
                bucket[degree[w]] ^= 1 << w
                degree[w] -= 1
                bucket[degree[w]] |= 1 << w
    return chosen


def _exact_chromatic(g, lower, deadline):
    """DSATUR-ordered branch and bound on an explicit stack: (colors, exact).

    The next vertex has the most distinct colors among its neighbours, then
    the highest degree, then the lowest index; it takes the lowest color
    first, so the first leaf is the DSATUR heuristic coloring.  Relabelled
    by that rank (degree, then lowest index), vertices are bits: the next
    one is the top bit of the highest non-empty sat[s], the uncolored
    vertices with s forbidden colors; colmask[c] holds the vertices where c
    is forbidden.  Coloring v moves the neighbours it newly forbids up one
    level, and undoing it moves them back down.

    The search stops at a coloring with at most ``lower`` colors.  Once it
    has a coloring it reads the clock every 2048 nodes, and past ``deadline``
    it returns the best coloring found, inexact.
    """
    n = g.n
    degree = np.bincount(g.edge_array.ravel(), minlength=n)
    rank = np.empty(n, dtype=np.intp)
    rank[np.lexsort((-np.arange(n), degree))] = np.arange(n)
    nbrs = _masks(n, rank[g.edge_array])
    sat, colmask = [0] * (n + 2), [0] * (n + 1)
    sat[0] = uncolored = (1 << n) - 1
    best_k, best = n + 1, None
    colors = [-1] * n               # read only once every vertex is colored
    stack = []      # [v, 1 << v, level, used before v, limit, color, touched]
    used = calls = 0                # used: colors used at the node entered
    while True:
        calls += 1
        if (calls % 2048 == 0 and best is not None
                and time.monotonic() > deadline):
            return [best[i] for i in rank], False
        if used < best_k and not uncolored:
            best_k, best = used, list(colors)
            if best_k <= lower:
                return [best[i] for i in rank], True
        elif used < best_k:
            s = used
            while not sat[s]:
                s -= 1
            v = sat[s].bit_length() - 1
            bit = 1 << v
            sat[s] ^= bit
            uncolored ^= bit
            stack.append([v, bit, s, used, min(used + 1, best_k - 1), -1, 0])
        # undo the top frame's color and move it to its next free color,
        # dropping frames that have none left
        while stack:
            top = stack[-1]
            v, bit, s, used, limit, c, touched = top
            colmask[c] ^= touched
            t = 1
            while touched:
                moved = touched & sat[t]
                if moved:
                    sat[t] ^= moved
                    sat[t - 1] |= moved
                    touched ^= moved
                t += 1
            c += 1
            while c < limit and colmask[c] & bit:
                c += 1
            if c < limit:
                break
            uncolored |= bit
            sat[s] |= bit
            stack.pop()
        else:
            return [best[i] for i in rank], True
        colors[v] = c
        touched = nbrs[v] & uncolored & ~colmask[c]
        colmask[c] |= touched
        top[5:] = c, touched
        t = used
        while touched:
            moved = touched & sat[t]
            if moved:
                sat[t] ^= moved
                sat[t + 1] |= moved
                touched ^= moved
            t -= 1
        used = max(used, c + 1)


def chromatic_number(g, budget=CHI_BUDGET):
    """Exact chromatic number within a time budget.

    The budget bounds the whole solve: the clique, independence-number and
    coloring searches share one deadline.  With u universal vertices (each
    adds exactly one color), the lower bound is the clique size, raised to
    ceil((n - u) / independence number) + u when a greedy independent set
    leaves room for that to be larger and the independence-number search
    ends in time.  On timeout the result carries the best (lower, upper)
    pair plus a witness coloring for the upper bound; ``exact`` says whether
    the two were proven equal.
    """
    if not budget >= 0:
        raise ParameterError("budget must be a nonnegative number of seconds, "
                             "got %r" % (budget,))
    return _chromatic(g, time.monotonic() + budget)


def _chromatic(g, deadline):
    n = g.n
    adj = _masks(n, g.edge_array)
    full = (1 << n) - 1
    u = sum(a == full ^ 1 << v for v, a in enumerate(adj))     # universal
    omega = lower = len(_clique(adj, deadline))
    independent = _greedy_independent_set(adj)
    # the n - u other vertices need ceil((n - u) / alpha) colors of their own
    if n and math.ceil((n - u) / len(independent)) + u > omega:
        co = [full ^ a ^ 1 << v for v, a in enumerate(adj)]
        alpha = len(_clique(co, deadline, independent))
        # a cut search gives an independent set, not alpha: no bound then
        if time.monotonic() <= deadline:
            lower = max(omega, math.ceil((n - u) / alpha) + u)
    colors, exact = _exact_chromatic(g, lower, deadline)
    best = Coloring(colors)
    return ChromaticResult(best.k if exact else lower, best.k, best, exact,
                           omega)
