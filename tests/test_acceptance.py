"""Acceptance gate: one test per numbered criterion.

Each test prints a single CRITERION line (visible with -s, and in the
failure report otherwise) and asserts the stated tolerances and runtime
budgets.
"""

import math
import time

import numpy as np

from planewidth.coloring import check_proper, chromatic_number
from planewidth.geometry import diameter
from planewidth.graphs import (
    circulant, circle_star, circle_star_points, complete, graph_from_edges,
    odd_wheel, petersen,
)
from planewidth.optimizer import OptimizeConfig, brute_force, objective_and_grad, optimize
from planewidth.partition import (
    extract_coloring, partition_unit, tiling_color_cap, tiling_coloring,
    tiling_parameter,
)
from planewidth.bounds import pw_interval
from planewidth.realization import (
    Realization, evaluate, from_circular, from_coloring, join_realization,
    known_complete_arrangement, lattice_complete_arrangement,
    low_dim_realization, product_realization, union_realization,
)
from planewidth.graphs import cartesian, disjoint_union, join

from conftest import random_graph, random_unit_diameter_points

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)

TABLE = {2: 1.0, 3: 1.0, 4: SQRT2, 5: (1 + math.sqrt(5)) / 2,
         6: 2 * math.sin(0.4 * math.pi), 7: 2.0,
         8: 1 / (2 * math.sin(math.pi / 14))}
LATTICE_RATIO = math.sqrt(2 * SQRT3 / math.pi)   # hexagonal packing constant


def report(num, ok, detail):
    print("CRITERION %d: %s — %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_table_arrangements():
    t0 = time.time()
    worst = 0.0
    for n in range(2, 9):
        r = known_complete_arrangement(n)
        ev = evaluate(complete(n), r, tol=1e-9)
        assert ev.valid, n
        worst = max(worst, abs(ev.width - TABLE[n]))
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 1.0,
           "max table deviation %.2e, %.2fs" % (worst, elapsed))


def test_criterion_02_optimizer_reproduction():
    t0 = time.time()
    cfg = OptimizeConfig()                  # 50 restarts, seed 0
    worst = 0.0
    for n in range(2, 8):
        res = optimize(complete(n), cfg)
        worst = max(worst, abs(res.width - TABLE[n]))
    for cyc in (5, 7, 11):                  # wheels on 6, 8, 12 vertices
        res = optimize(odd_wheel(cyc), cfg)
        worst = max(worst, abs(res.width - SQRT2))
    elapsed = time.time() - t0
    report(2, worst <= 1e-3 and elapsed < 120.0,
           "max deviation %.2e, %.1fs" % (worst, elapsed))


def test_criterion_03_oracle_agreement():
    t0 = time.time()
    res = 0.02
    cases = [
        (complete(3), 1.0),
        (complete(4), SQRT2),
        (graph_from_edges(3, [(0, 1), (1, 2)]), 1.0),
    ]
    ok = True
    details = []
    for g, truth in cases:
        w, r = brute_force(g, res)
        assert evaluate(g, r, tol=1e-9).valid
        err = abs(w - truth)
        ok = ok and err <= 3 * res * g.n
        details.append("%.4f" % err)
    elapsed = time.time() - t0
    report(3, ok and elapsed < 300.0,
           "errors %s, %.1fs" % (" ".join(details), elapsed))


def test_criterion_04_lattice_asymptotics():
    """width/sqrt(n) of the lattice arrangement converges to sqrt(2*sqrt(3)/pi).

    With c = sqrt(2*sqrt(3)/pi), every n in the test satisfies

        c*sqrt(n) - 1  <=  width  <=  c*sqrt(n) + 2/sqrt(3).

    Lower edge: Oler's inequality n <= 2A/sqrt(3) + P/2 + 1 on the convex hull
    (area A <= pi*w**2/4, perimeter P <= pi*w for width w >= 1) gives
    n <= pi*(w + 1)**2 / (2*sqrt(3)); this is the bound kn_lower states for
    every arrangement of K_n.
    Upper edge: the hexagonal Voronoi cells (area sqrt(3)/2, circumradius
    1/sqrt(3)) of the lattice points within distance R cover the disc of
    radius R - 1/sqrt(3), so at least n lattice points lie within
    R = sqrt(n*sqrt(3)/(2*pi)) + 1/sqrt(3); the n nearest ones therefore lie
    in that disc and width <= 2R = c*sqrt(n) + 2/sqrt(3).

    Neither edge says from which side the ratio approaches c (the n nearest
    lattice points come in from below), so convergence is checked as a
    non-increasing distance |ratio - c|, with 1e-3 slack.
    """
    t0 = time.time()
    ratios = []
    in_bracket = True
    for n in (100, 1000, 10000):
        r = lattice_complete_arrangement(n)
        w, _ = diameter(r.coords)
        ratios.append(w / math.sqrt(n))
        asymptote = LATTICE_RATIO * math.sqrt(n)
        in_bracket &= asymptote - 1.0 <= w <= asymptote + 2.0 / SQRT3
    elapsed = time.time() - t0
    gaps = [abs(x - LATTICE_RATIO) for x in ratios]
    monotone = all(b <= a + 1e-3 for a, b in zip(gaps, gaps[1:]))
    report(4, in_bracket and monotone and elapsed < 30.0,
           "ratios %s, bracket %s, monotone %s, %.1fs"
           % (["%.5f" % x for x in ratios], in_bracket, monotone, elapsed))


def test_criterion_05_chromatic_bands():
    t0 = time.time()
    ok = True
    notes = []

    rep = pw_interval(petersen())
    ok &= abs(rep.lower - 1.0) <= 1e-12 and abs(rep.upper - 1.0) <= 1e-12
    notes.append("petersen [%.3f,%.3f]" % (rep.lower, rep.upper))

    for g in (complete(4), odd_wheel(5), odd_wheel(7)):
        rep = pw_interval(g)
        ok &= rep.lower > 2 / SQRT3 - 1e-12 and rep.upper <= SQRT2 + 1e-12

    for n in (5, 6, 7):
        rep = pw_interval(complete(n))
        ok &= rep.lower > SQRT2 and rep.upper <= 2.0 + 1e-12

    g = circle_star(4, 0.1)
    chrom = chromatic_number(g)
    ok &= chrom.exact and chrom.chi == 8
    witness = Realization(tuple(list(circle_star_points(4, 0.1))
                                + [(0.0, 0.0)]))
    rep = pw_interval(g, witness=witness)
    ok &= rep.lower >= 2.0 - 1e-12 and rep.lower_strict
    ok &= rep.upper <= 2.1 + 1e-6
    notes.append("star [%.4f,%.4f] strict=%s"
                 % (rep.lower, rep.upper, rep.lower_strict))
    elapsed = time.time() - t0
    report(5, bool(ok) and elapsed < 120.0,
           "%s, %.1fs" % ("; ".join(notes), elapsed))


def test_criterion_06_partition_properties():
    t0 = time.time()
    deltas = {3: SQRT3 / 2, 4: SQRT2 / 2, 7: 0.5}
    rng = np.random.default_rng(1000)
    ok = True
    for scheme, delta in deltas.items():
        for _ in range(1000):
            pts = random_unit_diameter_points(rng, int(rng.integers(2, 16)))
            labels = partition_unit(pts, scheme)
            ok &= max(labels) < scheme
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if labels[i] == labels[j]:
                        d = float(np.hypot(*(pts[i] - pts[j])))
                        ok &= d < delta * (1 + 1e-9)
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 10))
        g = random_graph(rng, n, 0.3)
        r = Realization(rng.uniform(0, 1.8, size=(n, 2)))
        ev = evaluate(g, r)
        if not ev.valid or ev.width > 2.0:
            continue
        scheme = 7 if ev.width > SQRT2 else (
            4 if ev.width > 2 / SQRT3 else 3)
        c = extract_coloring(g, r, scheme)
        ok &= check_proper(g, c) is None
        checked += 1
    elapsed = time.time() - t0
    report(6, bool(ok) and elapsed < 60.0,
           "3000 partitions + 200 extractions, %.1fs" % elapsed)


def test_criterion_07_tiling_coloring():
    t0 = time.time()
    rng = np.random.default_rng(7000)
    cfg = OptimizeConfig(restarts=2, seed=7)
    ok = tiling_color_cap(2) == 19 and tiling_parameter(2.0) == 2
    done = 0
    while done < 50:
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n, 0.5)
        if g.m == 0:
            continue
        r = optimize(g, cfg).realization
        ev = evaluate(g, r)
        if ev.width == 0.0:
            continue
        c, t = tiling_coloring(g, r)
        ok &= check_proper(g, c) is None
        ok &= t == tiling_parameter(ev.width)
        ok &= c.k <= 3 * t * t + 3 * t + 1
        done += 1
    elapsed = time.time() - t0
    report(7, bool(ok) and elapsed < 60.0,
           "50 optimizer arrangements tiled, %.1fs" % elapsed)


def test_criterion_08_composition_inequalities():
    t0 = time.time()
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 8)), 0.5)
        h = random_graph(rng, int(rng.integers(2, 8)), 0.5)
        rg = from_coloring(g, chromatic_number(g).coloring)
        rh = from_coloring(h, chromatic_number(h).coloring)
        wg = evaluate(g, rg).width
        wh = evaluate(h, rh).width
        rj = join_realization(g, h, rg, rh)
        evj = evaluate(join(g, h), rj)
        ok &= evj.valid and evj.width <= wg + wh + 1.0 + 1e-9
        rp = product_realization(g, h, rg, rh)
        evp = evaluate(cartesian(g, h), rp)
        ok &= evp.valid and evp.width <= wg + wh + 1e-9
        ru = union_realization(g, h, rg, rh)
        evu = evaluate(disjoint_union(g, h), ru)
        ok &= evu.valid
        ok &= evu.width <= max(wg, wh, (wg + wh) / SQRT3) + 1e-9
    elapsed = time.time() - t0
    report(8, bool(ok) and elapsed < 60.0,
           "100 random pairs, %.1fs" % elapsed)


def test_criterion_09_circular_realization():
    t0 = time.time()
    g = circulant(25, 4)
    angles = [2 * math.pi * i / 25 for i in range(25)]
    r = from_circular(g, angles, 25 / 4)
    ev = evaluate(g, r)
    elapsed = time.time() - t0
    cap = 1 / math.sin(4 * math.pi / 25)
    report(9, ev.valid and ev.width <= cap + 1e-9 and elapsed < 1.0,
           "width %.6f <= %.6f, %.2fs" % (ev.width, cap, elapsed))


def test_criterion_10_low_dimension_formulas():
    t0 = time.time()
    rng = np.random.default_rng(10)
    ok = True
    done = 0
    while done < 20:
        n = int(rng.integers(3, 12))
        g = random_graph(rng, n, 0.5)
        if g.m == 0:
            continue
        chrom = chromatic_number(g)
        if not chrom.exact:
            continue
        chi = chrom.chi
        rl = low_dim_realization(g, chrom.coloring, "line")
        evl = evaluate(g, rl)
        ok &= evl.valid and evl.width == float(chi - 1)
        rg = low_dim_realization(g, chrom.coloring, "linf-grid")
        evg = evaluate(g, rg)
        ok &= evg.valid
        ok &= math.sqrt(chi) - 1 <= evg.width < math.sqrt(chi)
        done += 1
    elapsed = time.time() - t0
    report(10, bool(ok) and elapsed < 10.0,
           "20 exactly-colored graphs, %.1fs" % elapsed)


def test_criterion_11_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 8))
        g = random_graph(rng, n, 0.6)
        edge_index = np.array(g.sorted_edges(), dtype=int).reshape(-1, 2)
        x = rng.uniform(-2, 2, size=(n, 2))
        beta = float(rng.uniform(5, 500))
        mu = float(rng.uniform(0.5, 1000))
        _, grad = objective_and_grad(x, edge_index, beta, mu)
        h = 1e-6
        num = np.zeros_like(x)
        for i in range(n):
            for d in range(2):
                xp = x.copy(); xp[i, d] += h
                xm = x.copy(); xm[i, d] -= h
                fp, _ = objective_and_grad(xp, edge_index, beta, mu)
                fm, _ = objective_and_grad(xm, edge_index, beta, mu)
                num[i, d] = (fp - fm) / (2 * h)
        scale = max(1.0, float(np.abs(grad).max()))
        worst = max(worst, float(np.abs(grad - num).max()) / scale)
    elapsed = time.time() - t0
    report(11, worst < 1e-5 and elapsed < 10.0,
           "worst relative error %.2e, %.1fs" % (worst, elapsed))
