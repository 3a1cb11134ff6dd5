"""Graph values, named generators, composition operators and file formats.

Vertices are dense 0-based integers.  A graph stores its edges as one sorted,
read-only ``(m, 2)`` array, so graphs are immutable values; the frozenset
of edges is a view derived from it.
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


class InternalConsistencyError(AssertionError):
    """A proven invariant failed, such as lower <= upper: a bug, not input."""


_MAX_VERTICES = math.isqrt(np.iinfo(np.intp).max)   # keys u * n + v must fit


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
        if not (isinstance(n, (int, np.integer)) and 0 <= n <= _MAX_VERTICES):
            raise ParameterError("vertex count must be an integer in 0..%d"
                                 % _MAX_VERTICES)
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.intp)
        elif pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ParameterError("edges must be pairs of integer vertices")
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo < 0) | (lo == hi) | (hi >= n)     # before a uint64 can wrap
        if bad.any():
            e = min(zip(lo[bad].tolist(), hi[bad].tolist()))
            if e[0] == e[1]:
                raise ParameterError("self-loop %r" % (e,))
            raise ParameterError("edge %r out of range for n=%d" % (e, n))
        # one sort of the keys orders the edges lexicographically
        keys = lo.astype(np.intp)
        keys *= n
        keys += hi.astype(np.intp, copy=False)
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]
        arr = np.empty((len(keys), 2), np.intp)
        np.divmod(keys, n, out=(arr[:, 0], arr[:, 1]))
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


def graph_from_edges(n, pairs):
    return Graph(n, pairs)


# ---------------------------------------------------------------------------
# Named families


def _count(value, name):
    """value as an int, or ParameterError when it is not an integer or is
    above the vertex limit of a Graph, before anything is allocated."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError("%s must be an integer, got %r"
                             % (name, value)) from None
    if value > _MAX_VERTICES:
        raise ParameterError("%s must be at most %d" % (name, _MAX_VERTICES))
    return value


def complete(n):
    n = _count(n, "complete n")
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
    p, q = _count(p, "circulant p"), _count(q, "circulant q")
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
    return circle_points(6 * n + 1, (2.0 + eps) / 2.0)


def circle_points(k, radius):
    """k equidistant points on a circle about the origin, from the +x axis."""
    return [(radius * math.cos(2.0 * math.pi * i / k),
             radius * math.sin(2.0 * math.pi * i / k)) for i in range(k)]


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


# ---------------------------------------------------------------------------
# File formats


def write_edge_list(g, path):
    with open(path, "w") as fh:
        fh.write("# %d vertices\n" % g.n)
        fh.write("n %d\n" % g.n)
        fh.write(("%d %d\n" * g.m) % tuple(g.edge_array.ravel().tolist()))


#: the one integer grammar of both formats: a sign, then ASCII digits
_INT = r"[+-]?[0-9]+"
#: each format as ``_read_graph`` unpacks it, its patterns compiled on first
#: use; ``bad_line`` finds the "\n" before the first bad line (faster than
#: ``^``) and the text that its error echoes
_EDGE_LIST = (
    "", 0, r"(?m)(?:(?:[ \t]*(?:#.*)?\n)*[ \t]*(%s)[ \t]*(?:#.*)?$)?" % _INT,
    r"(?m)\n(?![ \t]*(?:(?:n|%s)[ \t]+%s[ \t]*)?(?:#.*)?$)([^#\n]*)"
    % (_INT, _INT),
    r"#.*|\n[ \t]*n[ \t]+(%s)" % _INT, "'n <count>' or '<u> <v>'",
    lambda counts, pairs: max(
        counts + ([int(pairs.max()) + 1] if pairs.size else []), default=0))
_DIMACS = (
    "e ", 1, "", r"(?m)\n(?![ \t]*(?:c(?:[ \t].*)?|(?:p[ \t]+\S+|e)[ \t]+%s"
    r"[ \t]+%s[ \t]*)?$)(.*)" % (_INT, _INT),
    r"\n[ \t]*(?:c.*|e|p[ \t]+\S+[ \t]+(\S+).*)",
    "'p edge <n> <m>' or 'e <u> <v>'", lambda counts, _: (counts or [0])[-1])


def _bounded_int(tok):
    """A signed run of digits as an int, or as +-2**64 past 19 significant
    digits, so no token meets Python's limit on int conversion length."""
    digits = tok.lstrip("+-").lstrip("0")
    value = int(digits or 0) if len(digits) <= 19 else 1 << 64
    return -value if tok[0] == "-" else value


def _read_graph(path, form):
    """The graph in the file ``path`` in ``form``, one of the formats above.

    Plain lines, the lead, then digits, one space and digits, are told apart
    by array passes over the bytes; only the other lines meet the grammar.
    All endpoints are parsed in one ``np.fromstring`` call.
    """
    lead, base, head, bad_line, cut, expected, vertex_count = form
    with open(path) as fh:
        text = fh.read()
    head = re.match(head, text)
    b = np.frombuffer(text[head.end():].encode(), np.uint8)
    at = np.flatnonzero(b - 48 > 9)         # the non-digits: uint8 wraps
    # line i is b[nl[i] + 1:nl[i + 1]], and at[ends[i] + 1:ends[i + 1]]
    # are its non-digits bar the "\n"
    ends = np.concatenate(([-1], np.flatnonzero(b[at] == 10), [len(at)]))
    nl = np.concatenate(([-1], at[ends[1:-1]], [len(b)]))
    # a plain line has k + 1 non-digits: the lead, then a space with digits
    # on either side
    k = len(lead)
    one = np.flatnonzero(np.diff(ends) == k + 2)
    sep = at[ends[one] + k + 1]
    plain = (b[sep] == 32) & (sep - nl[one] > k + 1) & (nl[one + 1] - sep > 1)
    for i, byte in enumerate(lead.encode(), 1):
        plain &= b[nl[one] + i] == byte
    other = np.ones(len(nl) - 1, bool)
    other[one[plain]] = False
    in_rest = np.repeat(other, np.diff(nl))[:-1]  # other lines and "\n"s
    del at, ends, nl, one, sep, plain   # freed before the parse sets the peak
    rest = b[in_rest].tobytes().decode()
    # a match at i in "\n" + rest is the "\n" before the line rest[i:]
    bad = re.search(bad_line, "\n" + rest)
    if bad:
        raise ParameterError("line %d: expected %s, got %r" % (
            text.count("\n", 0, head.end()) + 1
            + np.flatnonzero(other)[rest.count("\n", 0, bad.start())],
            expected, bad.group(1)))
    parts = re.split(cut, "\n" + rest)
    body = b" ".join([b[~in_rest].tobytes().replace(lead.encode(), b" " * k),
                      " ".join(parts[::2]).encode()])
    pairs = np.fromstring(b"" if body.isspace() else body, dtype=np.intp,
                          sep=" ").reshape(-1, 2)
    if base:
        pairs -= base
    top = np.iinfo(np.intp).max
    # fromstring saturates on overflow, and -2**63 - base wraps round
    if pairs.size and pairs.max() >= top - base:
        for pair in re.finditer(r"(?m)^[ \t]*%s[ \t]*(%s)[ \t]+(%s)"
                                % (lead.strip(), _INT, _INT), text):
            for tok in pair.groups():
                if not base - top - 1 <= _bounded_int(tok) <= top:
                    raise ParameterError("line %d: endpoint %s is out of range"
                                         % (text.count("\n", 0, pair.start())
                                            + 1, tok))
    counts = [_bounded_int(c) for c in head.groups() + tuple(parts[1::2]) if c]
    # built before the buffers above are freed, so the heap need not regrow
    return Graph(vertex_count(counts, pairs), pairs)


def read_edge_list(path):
    """Read an edge list: ``n <count>`` and ``<u> <v>`` lines, ``#`` comments.

    A lone ``<count>`` is accepted on the first data line only.  The vertex
    count is the largest count given or one past the largest endpoint.
    Integers are ASCII digits with an optional sign.  The first other line is
    an error that names it, and so is the first endpoint past int64.
    """
    return _read_graph(path, _EDGE_LIST)


def write_dimacs(g, path):
    with open(path, "w") as fh:
        fh.write("p edge %d %d\n" % (g.n, g.m))
        fh.write(("e %d %d\n" * g.m) % tuple((g.edge_array + 1).ravel().tolist()))


def read_dimacs(path):
    """Read DIMACS: ``p <format> <n> <m>`` and ``e <u> <v>`` lines, vertices
    numbered from 1, ``c`` comment lines and blank lines.

    The vertex count is ``n`` of the last ``p`` line, else 0; ``m`` must be
    an integer, but is never checked against the ``e`` lines.  Fields are
    separated by spaces and tabs; integers and errors are the edge list's.
    """
    return _read_graph(path, _DIMACS)


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
