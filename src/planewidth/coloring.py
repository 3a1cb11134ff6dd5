"""Proper colorings plus the exact combinatorial solvers feeding the bounds.

Max clique and chromatic number are branch and bound on explicit stacks over
vertex bitmasks (Python ints), deterministic given the vertex order: ties
always go to the lowest-index vertex and the lowest color.  The chromatic
number has one proof: the DSATUR search rules out every coloring with fewer
colors than its best, and stops early only at the clique size.
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


def max_clique(g):
    """A maximum clique as a sorted vertex list."""
    return _clique(_masks(g.n, g.edge_array), math.inf)


def _clique(adj, deadline):
    """max_clique on bitmask adjacency.

    Branch and bound on an explicit stack of [candidates, order, bounds]
    frames: candidates are greedily colored and the color count bounds the
    clique extension, pruning subtrees that cannot beat the incumbent.  Past
    the ``deadline``, a ``time.monotonic()`` value read at each new frame
    once there is an incumbent, it stops with the largest clique found: a
    maximal clique, of two or more vertices when there is an edge.
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

    best, clique = [], []               # clique[i] spawned stack[i + 1]
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
        if best and time.monotonic() > deadline:
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


def _exact_chromatic(g, lower, deadline):
    """DSATUR-ordered branch and bound on an explicit stack: (colors, exact).

    The next vertex has the most distinct colors among its neighbours, then
    the highest degree, then the lowest index; it takes the lowest color
    first, so the first leaf is the DSATUR heuristic coloring.  Relabelled
    by that rank (degree, then lowest index), vertices are bits: colmask[c]
    holds the vertices where c is forbidden, and plane[i] bit i of each
    vertex's saturation, its count of forbidden colors.  The next vertex is
    the top bit of the uncolored ones of highest saturation, narrowed plane
    by plane from the top.  Coloring v adds one to the neighbours it newly
    forbids by a ripple carry, and undoing it subtracts one by a borrow; a
    colored vertex keeps its stale bits until it is uncolored again.  A
    vertex that sees best_k - 1 colors has none free and gets no frame.

    The search stops at a coloring with at most ``lower`` colors.  Once it
    has a coloring it reads the clock every 2048 nodes, and past ``deadline``
    it returns the best coloring found, inexact.
    """
    n = g.n
    degree = np.bincount(g.edge_array.ravel(), minlength=n)
    rank = np.empty(n, dtype=np.intp)
    rank[np.lexsort((-np.arange(n), degree))] = np.arange(n)
    nbrs = _masks(n, rank[g.edge_array])
    plane, colmask = [0] * (n + 1).bit_length(), [0] * (n + 1)
    uncolored = (1 << n) - 1
    best_k, best = n + 1, None
    colors = [-1] * n               # read only once every vertex is colored
    stack = []      # [v, 1 << v, used before v, limit, color, touched]
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
            pick, s = uncolored, 0  # saturations are at most used
            for i in range(used.bit_length() - 1, -1, -1):
                if pick & plane[i]:
                    pick &= plane[i]
                    s |= 1 << i
            if s < best_k - 1:
                v = pick.bit_length() - 1
                bit = 1 << v
                uncolored ^= bit
                stack.append([v, bit, used, min(used + 1, best_k - 1), -1, 0])
        # undo the top frame's color and move it to its next free color,
        # dropping frames that have none left
        while stack:
            top = stack[-1]
            v, bit, used, limit, c, touched = top
            colmask[c] ^= touched
            i = 0
            while touched:          # borrow: minus one where touched
                plane[i] ^= touched
                touched &= plane[i]
                i += 1
            c += 1
            while c < limit and colmask[c] & bit:
                c += 1
            if c < limit:
                break
            uncolored |= bit
            stack.pop()
        else:
            return [best[i] for i in rank], True
        colors[v] = c
        touched = nbrs[v] & uncolored & ~colmask[c]
        colmask[c] |= touched
        top[4:] = c, touched
        i = 0
        while touched:              # carry: plus one where touched
            plane[i] ^= touched
            touched &= ~plane[i]
            i += 1
        used = max(used, c + 1)


def chromatic_number(g, budget=CHI_BUDGET):
    """Exact chromatic number within a time budget.

    The budget bounds the whole solve: the clique and coloring searches
    share one deadline.  The clique size omega is the lower bound until the
    coloring search proves its best coloring optimal by exhausting every
    coloring with fewer colors.  On timeout the result carries the best
    (lower, upper) pair plus a witness coloring for the upper bound;
    ``exact`` says whether the two were proven equal.
    """
    if not budget >= 0:
        raise ParameterError("budget must be a nonnegative number of seconds, "
                             "got %r" % (budget,))
    deadline = time.monotonic() + budget
    omega = len(_clique(_masks(g.n, g.edge_array), deadline))
    colors, exact = _exact_chromatic(g, omega, deadline)
    best = Coloring(colors)
    return ChromaticResult(best.k if exact else omega, best.k, best, exact,
                           omega)
