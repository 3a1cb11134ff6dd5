"""The three workloads: their inputs, their operations and their checks.

A workload is a list of operations.  ``build`` makes the inputs from the
workload seed before anything is timed; each operation then runs one call
into the package and checks its output with ``checks`` (never with the
package itself).  An operation reports (problems, fault, width): problems
are wrong outputs, fault says whether the named, known fault showed, and
width is the certified upper bound the operation produced, if any.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import checks

#: Named families for ``certify``, with chi where it is known by construction.
#: circle_star(4, 0.1) joins rim points four or more of 25 steps apart
#: (chord >= 1 on a circle of diameter 2.1), so its rim is circulant(25, 4)
#: with chi 7, and the centre adds one colour.
CERTIFY_FAMILIES = (
    [(("complete", n), n) for n in range(2, 13)]
    + [(("cycle", n), 3) for n in (5, 7, 9, 11, 21)]
    + [(("odd-wheel", c), 4) for c in (3, 5, 7, 9, 11)]
    + [(("petersen",), 3), (("groetzsch",), 4)]
    + [(("circulant", p, q), math.ceil(p / q))
       for p, q in ((7, 2), (9, 2), (11, 3), (13, 3), (17, 4), (19, 3),
                    (25, 4), (31, 5), (40, 7))]
    + [(("circle-star", 4, 0.1), 8)]
)

#: G(n, p) sweep for ``certify`` as (n, p, generator seed).  Each solves chi
#: exactly in well under a second under every relabelling tried, far inside
#: the default 10 s budget, so no result depends on machine speed.
CERTIFY_SWEEP = [
    (40, 0.5, 40), (40, 0.5, 41), (40, 0.5, 42),
    (50, 0.2, 50), (50, 0.2, 51), (50, 0.2, 52),
    (50, 0.3, 50), (50, 0.3, 51), (50, 0.3, 52),
    (50, 0.5, 50),
    (60, 0.2, 60),
    (70, 0.2, 70),
]

#: The budgeted operation that fails today: its chi_budget does not bound
#: the clique and independence-number solves.  Its input is fixed.  The
#: chromatic solve needs under 0.05 s, so a 0.25 s budget keeps the interval
#: exact, while the unbudgeted independence-number solve (1.7 s on the
#: fastest pass seen, 2.3 to 3.3 s usually) stays far past budget + slack:
#: the failed count does not depend on the machine's speed.
BUDGET_CASE = (100, 0.1, 100)
BUDGET = 0.25
#: Wall time allowed beyond the budget before the call counts as failed.
BUDGET_SLACK = 0.25

SEARCH_COMPLETE = (3, 4, 5, 6, 7)
SEARCH_WHEELS = (5, 7)
#: The default configuration runs 50 restarts; 10 keep a pass near 6 s, so
#: a run repeats it often enough for a steady median.  Each graph has
#: passing restarts among the first ten (38 to 50 of 50 pass singly).
SEARCH_RESTARTS = 10
ORACLE_RESOLUTION = 0.05
LINF_SIZES = (4, 5, 9)
LINF_RESTARTS = 8

VERIFY_N = 600


def gnp_edges(n, p, seed):
    """Edges u < v of G(n, p), each kept when the next uniform draw is < p."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < p
    return np.stack([iu[keep], ju[keep]], axis=1)


def relabel(edges, n, seed):
    """Edges under a random vertex permutation, and the permutation."""
    perm = np.random.default_rng(seed).permutation(n)
    return perm[edges], perm


class Op:
    """One timed call: ``run`` returns the output, ``check`` judges it."""

    def __init__(self, name, run, check, may_fail=False):
        self.name = name
        self.run = run
        self.check = check
        self.may_fail = may_fail


def _graph(pw, n, edges):
    return pw.graphs.graph_from_edges(n, [tuple(e) for e in edges.tolist()])


def _edge_array(g):
    return np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2)


# ---------------------------------------------------------------------------
# certify


def _interval_check(edges, kn=None, chi=None, budget=None):
    def check(report, wall):
        problems = checks.interval_problems(report.lower, report.upper,
                                            kn=kn, chi=chi)
        problems += checks.witness_problems(report.upper_witness.points,
                                            edges, report.upper)
        fault = budget is not None and wall > budget + BUDGET_SLACK
        return problems, fault, report.upper
    return check


def _circle_star_witness(pw, spec, perm):
    """Rim points on the circle of diameter 2 + eps, the centre at 0."""
    _, k, eps = spec
    p = 6 * k + 1
    angle = 2.0 * math.pi * np.arange(p) / p
    rim = (2.0 + eps) / 2.0 * np.stack([np.cos(angle), np.sin(angle)], 1)
    pts = np.vstack([rim, [[0.0, 0.0]]])
    placed = np.empty_like(pts)
    placed[perm] = pts
    return pw.realization.Realization(tuple(map(tuple, placed)))


def build_certify(pw, seed, workdir):
    ops = []
    for i, (spec, chi) in enumerate(CERTIFY_FAMILIES):
        base = pw.graphs.generate(spec)
        edges, perm = relabel(_edge_array(base), base.n, [seed, i])
        g = _graph(pw, base.n, edges)
        kn = spec[1] if spec[0] == "complete" else None
        witness = None
        if spec[0] == "circle-star":
            witness = _circle_star_witness(pw, spec, perm)
        ops.append(Op("certify %s" % (spec,),
                      lambda g=g, w=witness: pw.bounds.pw_interval(
                          g, witness=w),
                      _interval_check(edges, kn=kn, chi=chi)))
    for j, (n, p, gseed) in enumerate(CERTIFY_SWEEP):
        edges, _ = relabel(gnp_edges(n, p, gseed), n,
                           [seed, len(CERTIFY_FAMILIES) + j])
        g = _graph(pw, n, edges)
        ops.append(Op("certify G(%d, %g) seed %d" % (n, p, gseed),
                      lambda g=g: pw.bounds.pw_interval(g),
                      _interval_check(edges)))
    n, p, gseed = BUDGET_CASE
    edges = gnp_edges(n, p, gseed)
    g = _graph(pw, n, edges)
    ops.append(Op("certify G(%d, %g) seed %d, chi_budget %g"
                  % (n, p, gseed, BUDGET),
                  lambda: pw.bounds.pw_interval(g, chi_budget=BUDGET),
                  _interval_check(edges, budget=BUDGET), may_fail=True))
    return ops


# ---------------------------------------------------------------------------
# search


def _width_check(edges, lo, hi, what, p=2.0, fault_hi=None):
    """Witness check plus lo <= width <= hi; above fault_hi is the fault."""
    def check(result, wall):
        if isinstance(result, tuple):                   # brute_force
            width, r = result
        else:
            width, r = result.width, result.realization
        problems = checks.witness_problems(r.points, edges, width, p)
        problems += checks.range_problems(width, lo, hi, what)
        fault = fault_hi is not None and width > fault_hi
        return problems, fault, width
    return check


def _optimize(pw, g, cfg):
    return lambda: pw.optimizer.optimize(g, cfg)


def build_search(pw, seed, workdir):
    cfg = pw.optimizer.OptimizeConfig(restarts=SEARCH_RESTARTS)
    ops = []
    for n in SEARCH_COMPLETE:
        g = pw.graphs.generate(("complete", n))
        w = checks.TABLE[n]
        ops.append(Op("optimize K_%d" % n, _optimize(pw, g, cfg),
                      _width_check(_edge_array(g), w - checks.EDGE_TOL,
                                   w + 1e-3, "K_%d width" % n)))
    # Wheels keep their labels: which vertex draws which random start
    # changes the descent's length (W_7 took 1.2 to 3.1 s over ten
    # relabellings), so relabelling would measure the seed, not the code.
    lo = math.nextafter(2.0 / checks.SQRT3, math.inf)
    for c in SEARCH_WHEELS:
        g = pw.graphs.generate(("odd-wheel", c))
        ops.append(Op("optimize W_%d" % c, _optimize(pw, g, cfg),
                      _width_check(_edge_array(g), lo, checks.SQRT2 + 1e-3,
                                   "W_%d width" % c)))
    oracle = [("K_3", np.array([[0, 1], [0, 2], [1, 2]]), 1.0),
              ("P_3", relabel(np.array([[0, 1], [1, 2]]), 3, [seed, 0])[0],
               1.0),
              ("K_4", np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3],
                                [2, 3]]), checks.SQRT2)]
    for name, edges, pw_true in oracle:
        n = int(edges.max()) + 1
        g = _graph(pw, n, edges)
        ops.append(Op("brute_force %s" % name,
                      lambda g=g: pw.optimizer.brute_force(
                          g, ORACLE_RESOLUTION),
                      _width_check(edges, pw_true - checks.EDGE_TOL,
                                   pw_true + 3 * ORACLE_RESOLUTION * n,
                                   "%s oracle width" % name)))
    linf = pw.optimizer.OptimizeConfig(norm=pw.geometry.LINF,
                                       restarts=LINF_RESTARTS)
    for n in LINF_SIZES:
        g = pw.graphs.generate(("complete", n))
        w = checks.linf_kn_width(n)
        ops.append(Op("optimize K_%d max-norm" % n, _optimize(pw, g, linf),
                      _width_check(_edge_array(g), w - checks.EDGE_TOL,
                                   math.inf, "K_%d max-norm width" % n,
                                   p=math.inf, fault_hi=w + 1e-3),
                      may_fail=True))
    return ops


# ---------------------------------------------------------------------------
# verify-large


def _cli(pw, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pw.cli.main(argv)
    return code, out.getvalue()


def _fields(text):
    return dict(line.split(" ", 1) for line in text.splitlines() if line)


def build_verify_large(pw, seed, workdir):
    n = VERIFY_N
    g = pw.graphs.generate(("complete", n))
    edges, _ = relabel(_edge_array(g), n, [seed, 0])
    del g
    edges = edges[np.random.default_rng([seed, 1]).permutation(len(edges))]
    graph = os.path.join(workdir, "k%d.txt" % n)
    with open(graph, "w") as fh:
        fh.write("n %d\n" % n)
        np.savetxt(fh, edges, fmt="%d")
    real = os.path.join(workdir, "lattice.json")
    colors = os.path.join(workdir, "tiling.colors")
    c = checks.PACKING * math.sqrt(n)
    state = {}

    def check_realize(result, wall):
        code, text = result
        if code != 0:
            return ["realize exit code %d" % code], False, None
        f = _fields(text)
        width = float(f["width"])
        state["width"] = width
        with open(real) as fh:
            pts = json.load(fh)["points"]
        problems = checks.witness_problems(pts, edges, width)
        problems += checks.range_problems(width, c - 1.0,
                                          c + 2.0 / checks.SQRT3,
                                          "K_%d lattice width" % n)
        if f["valid"] != "true":
            problems.append("realize says valid %s" % f["valid"])
        return problems, False, width

    def check_verify(result, wall):
        code, text = result
        if code != 0:
            return ["verify exit code %d" % code], False, None
        f = _fields(text)
        problems = []
        if float(f["width"]) != state.get("width"):
            problems.append("verify width %s != realize width" % f["width"])
        if float(f["min_edge_distance"]) < 1.0 - checks.EDGE_TOL:
            problems.append("min_edge_distance %s" % f["min_edge_distance"])
        if f["valid"] != "true":
            problems.append("verify says valid %s" % f["valid"])
        return problems, False, None

    def check_color(result, wall):
        code, text = result
        if code != 0:
            return ["color exit code %d" % code], False, None
        col = np.loadtxt(colors, dtype=np.int64).reshape(-1, 2)
        col = col[np.argsort(col[:, 0])]
        problems = []
        if not np.array_equal(col[:, 0], np.arange(n)):
            problems.append("colour file does not list each vertex once")
            return problems, False, None
        problems += checks.coloring_problems(
            col[:, 1], edges, checks.tiling_cap(state.get("width", 0.0)))
        if int(_fields(text)["colors"]) != len(np.unique(col[:, 1])):
            problems.append("colour count differs from the file")
        return problems, False, None

    return [
        Op("realize --method lattice",
           lambda: _cli(pw, ["realize", graph, "--method", "lattice",
                             "-o", real]), check_realize),
        Op("verify", lambda: _cli(pw, ["verify", graph, real]), check_verify),
        Op("color --scheme tiling",
           lambda: _cli(pw, ["color", graph, "--from", real,
                             "--scheme", "tiling", "-o", colors]),
           check_color),
    ]


BUILDERS = {
    "certify": build_certify,
    "search": build_search,
    "verify-large": build_verify_large,
}
