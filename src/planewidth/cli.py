"""Command-line surface: generate, bound, realize, verify, color, optimize.

Exit codes: 0 success, 1 usage or parse error, 2 verification or
precondition failure, 3 internal consistency error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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


CHI_BUDGET_HELP = ("seconds for the whole chromatic solve: the clique and "
                   "coloring searches share it (default %(default)s)")


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
