"""Graph values, named generators, composition operators and file formats.

Vertices are dense 0-based integers.  Edges are stored as a frozenset of
sorted pairs, so graphs are hashable immutable values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np


class ParameterError(ValueError):
    """Raised when a generator or operator gets invalid parameters."""


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ParameterError("vertex count must be nonnegative")
        n = self.n
        pairs = {(u, v) if u < v else (v, u) for u, v in self.edges}
        bad = [e for e in pairs if not 0 <= e[0] < e[1] < n]
        if bad:
            e = min(bad)
            if e[0] == e[1]:
                raise ParameterError("self-loop %r" % (e,))
            raise ParameterError("edge %r out of range for n=%d" % (e, n))
        # copied from a set, the frozenset's table is sized to fit; built
        # from any other iterable it can end up twice as large
        object.__setattr__(self, "edges", frozenset(pairs))

    @property
    def m(self):
        return len(self.edges)

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def adjacency(self):
        """Adjacency sets, one per vertex."""
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degree(self, v):
        return sum(1 for e in self.edges if v in e)

    def sorted_edges(self):
        return sorted(self.edges)

    @functools.cached_property
    def edge_array(self):
        """The edges as a read-only (m, 2) intp array, rows in sorted order.

        Cached in the instance ``__dict__`` (the frozen dataclass has no slots).
        """
        flat = np.fromiter(itertools.chain.from_iterable(self.edges),
                           dtype=np.intp, count=2 * self.m).reshape(-1, 2)
        arr = flat[np.lexsort((flat[:, 1], flat[:, 0]))]
        arr.flags.writeable = False
        return arr


def graph_from_edges(n, pairs):
    return Graph(n, pairs)


# ---------------------------------------------------------------------------
# Named families


def complete(n):
    if n < 0:
        raise ParameterError("n must be nonnegative")
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    if n < 3:
        raise ParameterError("cycle needs at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def odd_wheel(cycle_len):
    """Odd cycle plus a hub adjacent to every cycle vertex (hub is vertex n-1)."""
    if cycle_len < 3 or cycle_len % 2 == 0:
        raise ParameterError("odd wheel needs an odd cycle length >= 3")
    hub = cycle_len
    pairs = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    pairs += [(i, hub) for i in range(cycle_len)]
    return graph_from_edges(cycle_len + 1, pairs)


def circulant(p, q):
    """Vertices 0..p-1, i ~ j iff the circular index distance is >= q.

    The circular chromatic number of this family is p/q.
    """
    if q < 2 or p <= 2 * q:
        raise ParameterError("circulant requires p > 2q >= 4")
    pairs = []
    for i in range(p):
        for j in range(i + 1, p):
            if min(j - i, p - (j - i)) >= q:
                pairs.append((i, j))
    return graph_from_edges(p, pairs)


def circle_star_points(n, eps):
    """The 6n+1 equidistant points on a circle of diameter 2+eps (no center)."""
    if n < 2 or eps <= 0:
        raise ParameterError("circle-star requires n >= 2 and eps > 0")
    p = 6 * n + 1
    r = (2.0 + eps) / 2.0
    return [(r * math.cos(2 * math.pi * i / p), r * math.sin(2 * math.pi * i / p))
            for i in range(p)]


def circle_star(n, eps):
    """Chord graph of 6n+1 circle points plus a universal center vertex.

    Points sit equidistantly on a circle of diameter 2+eps; two rim vertices
    are joined iff their Euclidean chord length is at least 1.  The center
    (last vertex) is adjacent to every rim vertex.
    """
    pts = circle_star_points(n, eps)
    p = 6 * n + 1
    pairs = []
    for i in range(p):
        for j in range(i + 1, p):
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            if math.hypot(dx, dy) >= 1.0:
                pairs.append((i, j))
    center = p
    pairs += [(i, center) for i in range(p)]
    return graph_from_edges(p + 1, pairs)


def circle_star_min_n(eps):
    """Smallest n >= 2 with (2+eps) sin(n*pi/(6n+1)) >= 1."""
    if eps <= 0:
        raise ParameterError("eps must be positive")
    n = 2
    while (2.0 + eps) * math.sin(n * math.pi / (6 * n + 1)) < 1.0:
        n += 1
        if n > 10 ** 6:
            raise ParameterError("no feasible n for eps=%g" % eps)
    return n


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


def groetzsch():
    """The 11-vertex triangle-free graph with chromatic number 4."""
    pairs = [(i, (i + 1) % 5) for i in range(5)]           # outer C5
    for i in range(5):
        pairs.append((5 + i, (i + 1) % 5))                 # mirror vertices
        pairs.append((5 + i, (i + 4) % 5))
        pairs.append((5 + i, 10))                          # apex
    return graph_from_edges(11, pairs)


# ---------------------------------------------------------------------------
# Composition operators


def disjoint_union(g, h):
    pairs = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    return graph_from_edges(g.n + h.n, pairs)


def join(g, h):
    base = disjoint_union(g, h)
    cross = [(u, g.n + x) for u in range(g.n) for x in range(h.n)]
    return graph_from_edges(base.n, list(base.edges) + cross)


def cartesian(g, h):
    """Vertex (u,x) is index u*h.n + x."""
    pairs = []
    for u in range(g.n):
        for x, y in h.edges:
            pairs.append((u * h.n + x, u * h.n + y))
    for u, v in g.edges:
        for x in range(h.n):
            pairs.append((u * h.n + x, v * h.n + x))
    return graph_from_edges(g.n * h.n, pairs)


def complement(g):
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
             if not g.has_edge(i, j)]
    return graph_from_edges(g.n, pairs)


def compose(kind, g, h=None):
    if kind == "complement":
        return complement(g)
    if h is None:
        raise ParameterError("operator %r needs two graphs" % kind)
    ops = {"join": join, "cartesian": cartesian, "disjoint-union": disjoint_union}
    if kind not in ops:
        raise ParameterError("unknown composition %r" % kind)
    return ops[kind](g, h)


def double_subdivide(g, e):
    """Replace edge uv by a path u-x-y-v through two new vertices."""
    u, v = min(e), max(e)
    if (u, v) not in g.edges:
        raise ParameterError("%r is not an edge" % (e,))
    x, y = g.n, g.n + 1
    pairs = [p for p in g.edges if p != (u, v)]
    pairs += [(u, x), (x, y), (y, v)]
    return graph_from_edges(g.n + 2, pairs)


def reduce_four_cycle_pairs(g):
    """Delete adjacent degree-2 vertex pairs that lie on a four-cycle.

    Such a pair is the inverse of a double edge subdivision with the original
    edge restored, so repeated removal keeps the plane-width unchanged.
    Vertices are relabeled densely after each removal.
    """
    while True:
        adj = g.adjacency()
        found = None
        for x, y in g.sorted_edges():
            if len(adj[x]) != 2 or len(adj[y]) != 2:
                continue
            u = (adj[x] - {y}).pop()
            v = (adj[y] - {x}).pop()
            if u == v:
                continue
            if v in adj[u]:    # u-x-y-v-u is a four-cycle
                found = (x, y)
                break
        if found is None:
            return g
        remove = set(found)
        keep = [w for w in range(g.n) if w not in remove]
        relabel = {w: i for i, w in enumerate(keep)}
        pairs = [(relabel[a], relabel[b]) for a, b in g.edges
                 if a not in remove and b not in remove]
        g = graph_from_edges(len(keep), pairs)


# ---------------------------------------------------------------------------
# Homomorphisms


@dataclass(frozen=True)
class Homomorphism:
    source: Graph
    target: Graph
    map: tuple

    def __post_init__(self):
        if len(self.map) != self.source.n:
            raise ParameterError("map must cover every source vertex")
        for img in self.map:
            if not (0 <= img < self.target.n):
                raise ParameterError("image vertex %r out of range" % (img,))
        object.__setattr__(self, "map", tuple(self.map))


def verify_homomorphism(phi):
    """True iff every source edge maps to a target edge."""
    for u, v in phi.source.edges:
        if not phi.target.has_edge(phi.map[u], phi.map[v]):
            return False
    return True


def coloring_homomorphism(g, colors, k):
    """View a proper k-coloring as a map into the complete graph K_k."""
    return Homomorphism(g, complete(k), tuple(colors))


# ---------------------------------------------------------------------------
# File formats


def write_edge_list(g, path):
    with open(path, "w") as fh:
        fh.write("# %d vertices\n" % g.n)
        fh.write("n %d\n" % g.n)
        for u, v in g.sorted_edges():
            fh.write("%d %d\n" % (u, v))


def read_edge_list(path):
    """Read an edge list: ``n <count>`` and ``<u> <v>`` lines, ``#`` comments.

    A lone ``<count>`` is accepted on the first data line only.  The vertex
    count is the largest count given or one past the largest endpoint.
    """
    count = 0
    pairs = []
    first = True
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            tok = line.partition("#")[0].split()
            if not tok:
                continue
            try:
                if tok[0] == "n" and len(tok) == 2:
                    count = max(count, int(tok[1]))
                elif len(tok) == 1 and first:
                    count = int(tok[0])
                else:
                    u, v = tok
                    pairs.append((int(u), int(v)))
            except ValueError:
                raise ParameterError(
                    "line %d: expected 'n <count>' or '<u> <v>', got %r"
                    % (lineno, " ".join(tok))) from None
            first = False
    n = max(count, max(map(max, pairs)) + 1) if pairs else count
    return graph_from_edges(n, pairs)


def write_dimacs(g, path):
    with open(path, "w") as fh:
        fh.write("p edge %d %d\n" % (g.n, g.m))
        for u, v in g.sorted_edges():
            fh.write("e %d %d\n" % (u + 1, v + 1))


def read_dimacs(path):
    n = 0
    pairs = []
    with open(path) as fh:
        for line in fh:
            tok = line.split()
            if not tok or tok[0] == "c":
                continue
            if tok[0] == "p":
                n = int(tok[2])
            elif tok[0] == "e":
                pairs.append((int(tok[1]) - 1, int(tok[2]) - 1))
    return graph_from_edges(n, pairs)


def generate(spec):
    """Build a graph from a family spec: (family, params...) tuple.

    Families: ("complete", n), ("cycle", n), ("odd-wheel", cycle_len),
    ("circulant", p, q), ("circle-star", n, eps), ("petersen",),
    ("groetzsch",).
    """
    family, *params = spec
    table = {
        "complete": complete,
        "cycle": cycle,
        "odd-wheel": odd_wheel,
        "circulant": circulant,
        "circle-star": circle_star,
        "petersen": petersen,
        "groetzsch": groetzsch,
    }
    if family not in table:
        raise ParameterError("unknown family %r" % family)
    return table[family](*params)
