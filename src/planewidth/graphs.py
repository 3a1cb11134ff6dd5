"""Graph values, named generators, composition operators and file formats.

Vertices are dense 0-based integers.  A graph stores its edges as one sorted,
read-only ``(m, 2)`` array, so graphs are immutable values; the frozenset
and adjacency sets are views derived from it.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator
import re
from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """Raised when a generator or operator gets invalid parameters."""


class CertificateError(ValueError):
    """A construction precondition failed; carries the offending witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class Graph:
    """A graph on the vertices 0..n-1.

    Built from any iterable or array of vertex pairs, in either order and with
    repeats; ``edge_array`` then holds each edge (u, v), u < v, once, in
    lexicographic order, as a read-only (m, 2) intp array.
    """

    n: int
    edge_array: np.ndarray = ()

    def __post_init__(self):
        n, edges = self.n, self.edge_array
        top = math.isqrt(np.iinfo(np.intp).max)    # keys u * n + v must fit
        if not (isinstance(n, (int, np.integer)) and 0 <= n <= top):
            raise ParameterError("vertex count must be an integer in 0..%d"
                                 % top)
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.intp)
        elif pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ParameterError("edges must be pairs of integer vertices")
        lo = np.minimum(pairs[:, 0], pairs[:, 1]).astype(np.intp)
        hi = np.maximum(pairs[:, 0], pairs[:, 1]).astype(np.intp)
        bad = (lo < 0) | (lo == hi) | (hi >= n)
        if bad.any():
            e = min(zip(lo[bad].tolist(), hi[bad].tolist()))
            if e[0] == e[1]:
                raise ParameterError("self-loop %r" % (e,))
            raise ParameterError("edge %r out of range for n=%d" % (e, n))
        # one sort of the keys orders the edges lexicographically
        keys = np.sort(lo * n + hi)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        arr = np.stack([keys // n, keys % n], axis=1)
        arr.flags.writeable = False
        object.__setattr__(self, "edge_array", arr)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.edge_array, other.edge_array))

    def __hash__(self):
        return hash((self.n, self.edge_array.tobytes()))

    @property
    def m(self):
        return len(self.edge_array)

    @functools.cached_property
    def edges(self):
        """The edges as a frozenset of (u, v) tuples, u < v."""
        return frozenset(zip(*self.edge_array.T.tolist()))

    def sorted_edges(self):
        return list(zip(*self.edge_array.T.tolist()))

    def adjacency(self):
        """Adjacency sets, one per vertex."""
        adj = [set() for _ in range(self.n)]
        for u, v in self.edge_array.tolist():
            adj[u].add(v)
            adj[v].add(u)
        return adj


def graph_from_edges(n, pairs):
    return Graph(n, pairs)


def induced_subgraph(g, keep):
    """The subgraph on the vertices where the boolean mask ``keep`` holds,
    relabelled densely in their old order."""
    keep = np.asarray(keep, dtype=bool)
    label = np.cumsum(keep) - 1
    inside = keep[g.edge_array].all(axis=1)
    return Graph(int(keep.sum()), label[g.edge_array[inside]])


# ---------------------------------------------------------------------------
# Named families


def _count(value, name):
    """value as an int, or ParameterError when it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError("%s must be an integer, got %r"
                             % (name, value)) from None


def complete(n):
    if n < 0:
        raise ParameterError("n must be nonnegative")
    return Graph(n, np.stack(np.triu_indices(n, 1), axis=1))


def cycle(n):
    n = _count(n, "cycle length")
    if n < 3:
        raise ParameterError("cycle needs at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def odd_wheel(cycle_len):
    """Odd cycle plus a hub adjacent to every cycle vertex (hub is vertex n-1)."""
    cycle_len = _count(cycle_len, "cycle length")
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
    q = _count(q, "circulant q")
    if q < 2 or p <= 2 * q:
        raise ParameterError("circulant requires p > 2q >= 4")
    pairs = complete(p).edge_array
    gap = pairs[:, 1] - pairs[:, 0]
    return Graph(p, pairs[np.minimum(gap, p - gap) >= q])


def circle_star_points(n, eps):
    """The 6n+1 equidistant points on a circle of diameter 2+eps (no center)."""
    n = _count(n, "circle-star n")
    if n < 2 or not 0 < eps < math.inf:
        raise ParameterError("circle-star requires n >= 2 and finite eps > 0")
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
    pts = np.array(circle_star_points(n, eps))
    rim = complete(len(pts)).edge_array
    dx, dy = (pts[rim[:, 0]] - pts[rim[:, 1]]).T
    # math.hypot, not np.hypot or edge_lengths: they round differently, which
    # moves chords of length 1 in or out at the boundary eps
    chords = rim[np.vectorize(math.hypot)(dx, dy) >= 1.0]
    return join(Graph(len(pts), chords), complete(1))


def circle_star_min_n(eps):
    """Smallest n in 2..10**6 with (2+eps) sin(n*pi/(6n+1)) >= 1."""
    if not 0 < eps < math.inf:
        raise ParameterError("eps must be positive and finite")

    def short(n):
        return (2.0 + eps) * math.sin(n * math.pi / (6 * n + 1)) < 1.0

    # the left side increases with n, so if n = 10**6 fails every n does
    if short(10 ** 6):
        raise ParameterError("no feasible n for eps=%g" % eps)
    n = 2
    while short(n):
        n += 1
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
    return Graph(g.n + h.n, np.vstack([g.edge_array, h.edge_array + g.n]))


def join(g, h):
    cross = np.stack(np.meshgrid(np.arange(g.n), np.arange(g.n, g.n + h.n),
                                 indexing="ij"), axis=-1).reshape(-1, 2)
    return Graph(g.n + h.n,
                 np.vstack([g.edge_array, h.edge_array + g.n, cross]))


def cartesian(g, h):
    """Vertex (u,x) is index u*h.n + x."""
    h_copies = np.arange(g.n)[:, None, None] * h.n + h.edge_array
    g_copies = g.edge_array[:, None, :] * h.n + np.arange(h.n)[:, None]
    return Graph(g.n * h.n, np.vstack([h_copies.reshape(-1, 2),
                                       g_copies.reshape(-1, 2)]))


def complement(g):
    iu, ju = np.triu_indices(g.n, 1)
    u, v = g.edge_array.T
    absent = ~np.isin(iu * g.n + ju, u * g.n + v)
    return Graph(g.n, np.stack([iu[absent], ju[absent]], axis=1))


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
    hit = (g.edge_array == (u, v)).all(axis=1)
    if not hit.any():
        raise ParameterError("%r is not an edge" % (e,))
    x, y = g.n, g.n + 1
    return Graph(g.n + 2, np.vstack([g.edge_array[~hit],
                                     [(u, x), (x, y), (y, v)]]))


def reduce_four_cycle_pairs(g):
    """Delete adjacent degree-2 vertex pairs that lie on a four-cycle.

    Such a pair is the inverse of a double edge subdivision with the original
    edge restored, so repeated removal keeps the plane-width unchanged.
    Vertices are relabeled densely after each removal.
    """
    while True:
        adj = g.adjacency()
        for x, y in g.edge_array.tolist():
            if len(adj[x]) != 2 or len(adj[y]) != 2:
                continue
            u = (adj[x] - {y}).pop()
            v = (adj[y] - {x}).pop()
            if u != v and v in adj[u]:    # u-x-y-v-u is a four-cycle
                keep = np.ones(g.n, dtype=bool)
                keep[[x, y]] = False
                g = induced_subgraph(g, keep)
                break
        else:
            return g


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
    img = np.asarray(phi.map, dtype=np.intp)[phi.source.edge_array]
    lo, hi = img.min(axis=1), img.max(axis=1)      # a loop lo == hi never hits
    u, v = phi.target.edge_array.T
    return bool(np.isin(lo * phi.target.n + hi, u * phi.target.n + v).all())


# ---------------------------------------------------------------------------
# File formats


def write_edge_list(g, path):
    with open(path, "w") as fh:
        fh.write("# %d vertices\n" % g.n)
        fh.write("n %d\n" % g.n)
        fh.write(("%d %d\n" * g.m) % tuple(g.edge_array.ravel().tolist()))


#: a line of the edge-list grammar, bar the lone count: blank, ``n <count>``
#: or ``<u> <v>``, each with an optional ``#`` comment.  The searches match
#: the ``\n`` before a line, which ``re`` finds faster than ``^``; a bad
#: line is tried against the plain ``<u> <v>`` line before the full one.
_EDGE_LIST_LINE = r"[ \t]*(?:(?:n|[+-]?\d+)[ \t]+[+-]?\d+[ \t]*)?(?:#.*)?$"
_BAD_EDGE_LIST_LINE = re.compile(r"\n(?!\d+ \d+$)(?!%s)" % _EDGE_LIST_LINE,
                                 re.M | re.A)
_LONE_COUNT = re.compile(r"(?:[ \t]*(?:#.*)?\n)*[ \t]*([+-]?\d+)[ \t]*(?:#.*)?$",
                         re.M | re.A)
_COUNT = re.compile(r"\n[ \t]*n[ \t]+([+-]?\d+)", re.A)


def read_edge_list(path):
    """Read an edge list: ``n <count>`` and ``<u> <v>`` lines, ``#`` comments.

    A lone ``<count>`` is accepted on the first data line only.  The vertex
    count is the largest count given or one past the largest endpoint.  The
    whole file is checked against the grammar first; then the ``n`` lines are
    cut out and the endpoints parsed in one ``np.fromstring`` call.  An
    endpoint outside the int64 range is an error that names its line.
    """
    with open(path) as fh:
        text = fh.read()
    counts, start = [], 0
    lone = _LONE_COUNT.match(text)
    if lone:
        counts, start = [lone.group(1)], lone.end()
    # a match at i in "\n" + text is the "\n" before the line text[i:]
    bad = _BAD_EDGE_LIST_LINE.search("\n" + text, start)
    if bad:
        line = text[bad.start():].split("\n", 1)[0]
        raise ParameterError(
            "line %d: expected 'n <count>' or '<u> <v>', got %r"
            % (text.count("\n", 0, bad.start()) + 1,
               " ".join(line.partition("#")[0].split())))
    body = text[start:]
    if "#" in body:
        body = re.sub("#.*", "", body)
    parts = _COUNT.split("\n" + body)
    count = max(map(int, counts + parts[1::2]), default=0)
    body = " ".join(parts[::2])
    if not body or body.isspace():
        return Graph(count)
    pairs = np.fromstring(body, dtype=np.intp, sep=" ").reshape(-1, 2)
    top = int(pairs.max())
    if top == np.iinfo(np.intp).max:    # fromstring saturates on overflow
        for pair in re.finditer(r"(?m)^[ \t]*([+-]?\d+)[ \t]+([+-]?\d+)", text):
            for tok in pair.groups():
                digits = tok.lstrip("+-").lstrip("0")
                if len(digits) > 19 or int(digits or 0) > top + (tok[0] == "-"):
                    lineno = text.count("\n", 0, pair.start()) + 1
                    raise ParameterError("line %d: endpoint %s is out of "
                                         "range" % (lineno, tok))
    return Graph(max(count, top + 1), pairs)


def write_dimacs(g, path):
    with open(path, "w") as fh:
        fh.write("p edge %d %d\n" % (g.n, g.m))
        fh.write(("e %d %d\n" * g.m) % tuple((g.edge_array + 1).ravel().tolist()))


def read_dimacs(path):
    n = 0
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            tok = line.split()
            if not tok or tok[0] not in ("p", "e"):
                continue
            try:
                if tok[0] == "p":
                    n = int(tok[2])
                else:
                    pairs.append((int(tok[1]) - 1, int(tok[2]) - 1))
            except (IndexError, ValueError):
                raise ParameterError(
                    "line %d: expected 'p edge <n> <m>' or 'e <u> <v>', got %r"
                    % (lineno, " ".join(tok))) from None
    return Graph(n, pairs)


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
    arity = len(inspect.signature(table[family]).parameters)
    if len(params) != arity:
        raise ParameterError("family %r takes %d parameter%s, got %d"
                             % (family, arity, "" if arity == 1 else "s",
                                len(params)))
    return table[family](*params)
