"""Certified plane-width intervals with per-bound provenance.

Lower bounds come from edges, clique containment, chromatic thresholds and
tiling inversion; upper bounds are always witnessed by an explicit verified
realization (coloring target, optimizer output, composition construction,
circular placement, or a user-supplied arrangement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coloring import chromatic_number
from .geometry import SQRT3, diameter
from .graphs import ParameterError, compose
from .optimizer import OptimizeConfig, optimize
from .partition import SCHEME_THRESHOLD, tiling_color_cap
from .realization import COMPLETE_WIDTH, Realization, evaluate, from_circular, \
    from_coloring, join_realization, lattice_complete_arrangement, \
    product_realization, union_realization

LATTICE_RATIO = math.sqrt(2.0 * SQRT3 / math.pi)    # asymptotic width/sqrt(n)


class InternalConsistencyError(AssertionError):
    """Lower bound exceeded upper bound: a bug certificate, never clamped."""


@dataclass(frozen=True)
class BoundReport:
    lower: float
    lower_strict: bool
    lower_provenance: tuple
    upper: float
    upper_witness: Realization
    upper_provenance: tuple

    def to_json_dict(self):
        return {
            "lower": self.lower,
            "lower_strict": self.lower_strict,
            "upper": self.upper,
            "lower_provenance": list(self.lower_provenance),
            "upper_provenance": list(self.upper_provenance),
        }


def kn_lower(n):
    """Proven lower bound on the optimal width of n mutually-spread points."""
    if n < 2:
        raise ParameterError("need n >= 2")
    if n <= 8:
        return COMPLETE_WIDTH[n]
    return max(COMPLETE_WIDTH[8], LATTICE_RATIO * math.sqrt(n) - 1.0)


def kn_upper(n):
    """Constructive upper bound: the table value, else the lattice packing."""
    if n < 2:
        raise ParameterError("need n >= 2")
    if n <= 8:
        return COMPLETE_WIDTH[n]
    w, _ = diameter(lattice_complete_arrangement(n).coords)
    return w


def lower_bound(g, chrom):
    """(value, strict, provenance tags) from all lower-bound mechanisms.

    chrom is a ChromaticResult; only its lower and omega fields are used, so
    a timed-out solver degrades the bound instead of breaking it.
    """
    if g.m == 0:
        raise ParameterError("bounds need at least one edge")
    chi_lo, omega = chrom.lower, chrom.omega
    candidates = [(1.0, False, "edge")]
    candidates.append((kn_lower(omega), False,
                       "clique-table" if omega <= 8 else "clique-formula"))
    # a k-piece scheme colors any arrangement up to its threshold width
    for k, threshold in SCHEME_THRESHOLD.items():
        if chi_lo > k:
            candidates.append((threshold, True, "chi-threshold"))
    # largest t whose tiling color budget still falls short of chi
    t = 0
    while tiling_color_cap(t + 1) < chi_lo:
        t += 1
    if t >= 1:
        candidates.append((1.5 * t, False, "tiling-inversion"))

    value = max(v for v, _, _ in candidates)
    winners = [(s, tag) for v, s, tag in candidates if v >= value - 1e-12]
    strict = any(s for s, _ in winners)
    tags = tuple(dict.fromkeys(tag for _, tag in winners))
    return value, strict, tags


def _assemble(g, chrom, entries):
    """BoundReport from the lower bounds and the witnessed upper entries.

    entries: (width, realization, tag) triples.  The least width wins (the
    earlier entry on an exact tie); entries within 1e-12 of it share the tags.
    """
    lo, strict, lo_tags = lower_bound(g, chrom)
    if not chrom.exact:
        lo_tags = lo_tags + ("chi-timeout",)
    entries = sorted(entries, key=lambda e: e[0])
    up, up_witness, _ = entries[0]
    up_tags = tuple(dict.fromkeys(tag for w, _, tag in entries
                                  if w <= up + 1e-12))
    if lo > up + 1e-9:
        raise InternalConsistencyError(
            "interval inversion: lower %.12g > upper %.12g" % (lo, up))
    return BoundReport(lo, strict, lo_tags, up, up_witness, up_tags)


def pw_interval(g, chi_budget=10.0, opt_restarts=0, opt_seed=0,
                circular=None, witness=None):
    """Assemble a certified [lower, upper] plane-width interval.

    The upper bound is the least width over the witnessed mechanisms.
    circular: optional (angles, chi_c) pair; witness: optional externally
    supplied realization, verified before use.
    """
    if g.m == 0:
        raise ParameterError("bounds need at least one edge")
    chrom = chromatic_number(g, budget=chi_budget)
    r = from_coloring(g, chrom.coloring)
    entries = [(evaluate(g, r).width, r, "coloring")]
    if circular is not None:
        angles, chi_c = circular
        rc = from_circular(g, angles, chi_c)    # judged by evaluate there
        entries.append((diameter(rc.coords, rc.norm)[0], rc, "circular"))
    if witness is not None:
        ev = evaluate(g, witness)
        if not ev.valid:
            raise ParameterError("supplied witness is not a valid realization")
        entries.append((ev.width, witness, "witness"))
    if opt_restarts > 0:
        res = optimize(g, OptimizeConfig(restarts=opt_restarts, seed=opt_seed))
        entries.append((res.width, res.realization, "optimizer"))
    return _assemble(g, chrom, entries)


def compose_report(kind, g, h, report_g, report_h):
    """Combine part reports into a report for join/cartesian/disjoint-union.

    The composed witness realization comes from the matching construction;
    the coloring mechanism on the composite can still beat it, so callers
    wanting the absolute best interval should run pw_interval on the
    composite graph as well.
    """
    constructions = {"join": (join_realization, "join"),
                     "cartesian": (product_realization, "product"),
                     "disjoint-union": (union_realization, "union")}
    if kind not in constructions:
        raise ParameterError("unknown composition %r" % kind)
    build, tag = constructions[kind]
    comp = compose(kind, g, h)
    r = build(g, h, report_g.upper_witness, report_h.upper_witness)
    ev = evaluate(comp, r)
    if not ev.valid:
        raise InternalConsistencyError("composed witness failed verification")
    chrom = chromatic_number(comp)
    rc = from_coloring(comp, chrom.coloring)
    return _assemble(comp, chrom, [(ev.width, r, tag),
                                   (evaluate(comp, rc).width, rc, "coloring")])
