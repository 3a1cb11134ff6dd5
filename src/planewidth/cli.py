"""Command-line surface: generate, bound, realize, verify, color, plot.

Exit codes: 0 success, 1 usage or parse error, 2 verification or
precondition failure, 3 internal consistency error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import graphs as graphs_mod
from .coloring import CHI_BUDGET, chromatic_number, write_coloring
from .geometry import INF, NormSpec
from .graphs import CertificateError, ParameterError
from .optimizer import OptimizeConfig, optimize
from .partition import SCHEME_THRESHOLD, extract_coloring, tiling_coloring
from .realization import Realization, _fmt, evaluate, from_circular, \
    from_coloring, known_complete_arrangement, lattice_complete_arrangement, \
    low_dim_realization, read_realization, write_realization


def load_graph(path):
    with open(path) as fh:              # no edge list starts with c or p
        first = next((line.split()[0] for line in fh if not line.isspace()), "")
    if path.endswith(".col") or first in ("c", "p"):
        return graphs_mod.read_dimacs(path)
    return graphs_mod.read_edge_list(path)


def _parse_norm(text):
    if text in ("inf", "oo"):
        return NormSpec(INF, 2)
    return NormSpec(float(text), 2)


def _family_spec(family, params):
    ints = []
    for tok in params:
        try:
            ints.append(int(tok))
        except ValueError:
            ints.append(float(tok))
    return tuple([family] + ints)


def cmd_gen(args):
    g = graphs_mod.generate(_family_spec(args.family, args.params))
    if args.format == "dimacs":
        graphs_mod.write_dimacs(g, args.output)
    else:
        graphs_mod.write_edge_list(g, args.output)
    print("wrote %s: %d vertices, %d edges" % (args.output, g.n, g.m))
    return 0


def _read_angles(path, n):
    """One finite ``<vertex> <angle>`` line for each of the n vertices."""
    angles = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            tok = line.partition("#")[0].split()
            if not tok:
                continue
            try:
                v, a = tok
                v, a = int(v), float(a)
            except ValueError:
                raise ParameterError(
                    "angles line %d: expected '<vertex> <angle>', got %r"
                    % (lineno, " ".join(tok))) from None
            if not 0 <= v < n:
                raise ParameterError("angles line %d: vertex %d out of range "
                                     "for n=%d" % (lineno, v, n))
            if not math.isfinite(a):
                raise ParameterError("angles line %d: angle of vertex %d is "
                                     "not finite" % (lineno, v))
            angles[v] = a
    missing = [v for v in range(n) if v not in angles]
    if missing:
        raise ParameterError("angles file gives no angle for vertex %d"
                             % missing[0])
    return [angles[v] for v in range(n)]


def cmd_bounds(args):
    g = load_graph(args.graph)
    circular = None
    if args.chi_c is not None and not args.angles:
        raise ParameterError("--chi-c requires --angles")
    if args.angles:
        if args.chi_c is None:
            raise ParameterError("--angles requires --chi-c")
        circular = (_read_angles(args.angles, g.n), args.chi_c)
    report = bounds_mod.pw_interval(
        g, chi_budget=args.chi_budget, opt_restarts=args.opt_restarts,
        opt_seed=args.seed, circular=circular)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print("lower %s%s" % (_fmt(report.lower),
                              " (strict)" if report.lower_strict else ""))
        print("upper %s" % _fmt(report.upper))
        print("lower_provenance %s" % ",".join(report.lower_provenance))
        print("upper_provenance %s" % ",".join(report.upper_provenance))
    return 0


def cmd_realize(args):
    g = load_graph(args.graph)
    method = args.method
    if method == "table":
        r = known_complete_arrangement(g.n)
    elif method == "lattice":
        r = lattice_complete_arrangement(g.n)
    elif method == "circular":
        if not args.angles or args.chi_c is None:
            raise ParameterError("circular method needs --angles and --chi-c")
        r = from_circular(g, _read_angles(args.angles, g.n), args.chi_c)
    else:                                       # coloring, line, linf-grid
        c = chromatic_number(g, budget=args.chi_budget).coloring
        r = (from_coloring(g, c) if method == "coloring"
             else low_dim_realization(g, c, method))
    write_realization(r, args.output)
    ev = evaluate(g, r)
    print("width %s" % _fmt(ev.width))
    print("valid %s" % ("true" if ev.valid else "false"))
    return 0 if ev.valid else 2


def cmd_verify(args):
    g = load_graph(args.graph)
    r = read_realization(args.realization)
    if args.norm is not None:
        r = Realization(r.coords, _parse_norm(args.norm))
    ev = evaluate(g, r, tol=args.tol)
    print("width %s" % _fmt(ev.width))
    print("min_edge_distance %s" % _fmt(ev.min_edge_distance))
    print("valid %s" % ("true" if ev.valid else "false"))
    if ev.violating_edge is not None:
        print("violating_edge %d %d" % ev.violating_edge)
    return 0 if ev.valid else 2


def cmd_color(args):
    g = load_graph(args.graph)
    r = read_realization(args.source)
    if args.scheme == "tiling":
        c, _ = tiling_coloring(g, r)
    else:
        c = extract_coloring(g, r, int(args.scheme))
    write_coloring(c, args.output)
    print("colors %d" % c.k)
    return 0


def cmd_optimize(args):
    g = load_graph(args.graph)
    cfg = OptimizeConfig(restarts=args.restarts, seed=args.seed,
                         norm=_parse_norm(args.norm))
    res = optimize(g, cfg)
    write_realization(res.realization, args.output)
    print("width %s" % _fmt(res.width))
    print("restart %d" % res.restart_index)
    return 0


def cmd_plot(args):
    r = read_realization(args.realization)
    g = load_graph(args.graph) if args.graph else None
    svg = render_svg(r, g)
    with open(args.output, "w") as fh:
        fh.write(svg)
    print("wrote %s" % args.output)
    return 0


def render_svg(r, g=None):
    """2-D scatter with edges and a 1-unit scale bar; 100 px per plane unit."""
    if g is not None and g.n != r.n:
        raise ParameterError("realization has %d points but the graph has %d "
                             "vertices" % (r.n, g.n))
    scale = 100.0
    pts = np.zeros((max(r.n, 1), 2))
    pts[:r.n, :r.norm.dim] = r.coords          # a line sits on y = 0
    xmin, ymin = pts.min(axis=0).tolist()
    xmax, ymax = pts.max(axis=0).tolist()
    span = max(xmax - xmin, ymax - ymin, 1.0)
    margin = 0.05 * span + 0.2
    w = (xmax - xmin + 2 * margin) * scale
    h = (ymax - ymin + 2 * margin + 0.4) * scale

    def sx(x):
        return (x - xmin + margin) * scale

    def sy(y):
        return (ymax - y + margin) * scale    # flip: svg y grows downward

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%.1f" height="%.1f" '
             'viewBox="0 0 %.1f %.1f">' % (w, h, w, h)]
    if g is not None:
        u, v = g.edge_array.T
        ends = np.stack([sx(pts[u, 0]), sy(pts[u, 1]),
                         sx(pts[v, 0]), sy(pts[v, 1])], axis=1)
        parts += ['<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                  'stroke="#888" stroke-width="1"/>' % tuple(e)
                  for e in ends.tolist()]
    for i, (x, y) in enumerate(pts.tolist()):
        parts.append('<circle cx="%.2f" cy="%.2f" r="4" fill="#c22"/>'
                     % (sx(x), sy(y)))
        parts.append('<text x="%.2f" y="%.2f" font-size="11">%d</text>'
                     % (sx(x) + 6, sy(y) - 6, i))
    # 1-unit scale bar, bottom left
    by = h - 0.15 * scale
    parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                 'stroke="#000" stroke-width="2"/>'
                 % (0.1 * scale, by, 1.1 * scale, by))
    parts.append('<text x="%.2f" y="%.2f" font-size="12">1 unit</text>'
                 % (0.1 * scale, by - 5))
    parts.append("</svg>\n")
    return "\n".join(parts)


CHI_BUDGET_HELP = ("seconds for the whole chromatic solve: the clique, "
                   "independence-number and coloring searches share it "
                   "(default %(default)s)")


class _Parser(argparse.ArgumentParser):
    # a usage error is an input error: one line, exit 1 (subparsers too)
    def error(self, message):
        raise ParameterError(message)


def build_parser():
    ap = _Parser(prog="planewidth")
    sub = ap.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", help="generate a named graph family")
    g.add_argument("--family", required=True)
    g.add_argument("--params", nargs="*", default=[])
    g.add_argument("--format", choices=["edgelist", "dimacs"],
                   default="edgelist")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("bounds", help="certified width interval")
    b.add_argument("graph")
    b.add_argument("--chi-budget", type=float, default=CHI_BUDGET,
                   help=CHI_BUDGET_HELP)
    b.add_argument("--opt-restarts", type=int, default=0)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--angles")
    b.add_argument("--chi-c", type=float, default=None)
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_bounds)

    r = sub.add_parser("realize", help="construct a realization")
    r.add_argument("graph")
    r.add_argument("--method", required=True,
                   choices=["coloring", "table", "lattice", "circular",
                            "line", "linf-grid"])
    r.add_argument("--angles")
    r.add_argument("--chi-c", type=float, default=None)
    r.add_argument("--chi-budget", type=float, default=CHI_BUDGET,
                   help=CHI_BUDGET_HELP)
    r.add_argument("-o", "--output", required=True)
    r.set_defaults(func=cmd_realize)

    v = sub.add_parser("verify", help="evaluate a realization against a graph")
    v.add_argument("graph")
    v.add_argument("realization")
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--norm", default=None)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("color", help="extract a proper coloring")
    c.add_argument("graph")
    c.add_argument("--from", dest="source", required=True)
    c.add_argument("--scheme", required=True,
                   choices=[*map(str, SCHEME_THRESHOLD), "tiling"])
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=cmd_color)

    o = sub.add_parser("optimize", help="numerically minimize the width")
    o.add_argument("graph")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--restarts", type=int, default=50)
    o.add_argument("--norm", default="2")
    o.add_argument("-o", "--output", required=True)
    o.set_defaults(func=cmd_optimize)

    p = sub.add_parser("plot", help="emit an SVG scatter of a realization")
    p.add_argument("realization")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_plot)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:                          # only --help exits the parser
        return 0
    except (OSError, ValueError) as exc:        # ParameterError included
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, CertificateError) else 1
    except graphs_mod.InternalConsistencyError as exc:
        print("internal consistency error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
