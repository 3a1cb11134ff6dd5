"""Width minimization: descent, certification, and the grid oracle."""

import math

import numpy as np
import pytest

from planewidth.geometry import LINF
from planewidth.graphs import (
    ParameterError, complete, cycle, graph_from_edges, odd_wheel,
)
from planewidth.optimizer import (
    OptimizeConfig, brute_force, objective_and_grad, optimize,
)
from planewidth.realization import COMPLETE_WIDTH, evaluate

from conftest import random_graph


def small_cfg(restarts=6, seed=0):
    return OptimizeConfig(restarts=restarts, max_iters=800, seed=seed)


def test_config_validation():
    with pytest.raises(ParameterError):
        OptimizeConfig(restarts=0)


def test_optimize_k2_exact():
    res = optimize(complete(2), small_cfg())
    assert res.width == pytest.approx(1.0, abs=1e-9)


def test_optimize_k4_near_table():
    res = optimize(complete(4), small_cfg(restarts=10))
    assert res.width == pytest.approx(math.sqrt(2), abs=1e-3)


def test_optimize_requires_edge():
    with pytest.raises(ParameterError):
        optimize(graph_from_edges(3, []), small_cfg())


def test_optimize_deterministic():
    g = cycle(5)
    cfg = small_cfg(restarts=4, seed=7)
    a = optimize(g, cfg)
    b = optimize(g, cfg)
    assert a.width == b.width
    assert a.restart_index == b.restart_index
    assert a.realization.points == b.realization.points


def test_optimize_witness_sound():
    rng = np.random.default_rng(19)
    for _ in range(6):
        g = random_graph(rng, int(rng.integers(3, 8)), 0.5)
        if g.m == 0:
            continue
        res = optimize(g, small_cfg(restarts=3))
        ev = evaluate(g, res.realization, tol=1e-9)
        assert ev.valid
        assert ev.width == pytest.approx(res.width, abs=1e-12)


def test_optimize_never_beats_truth():
    for n in (2, 3, 4, 5):
        res = optimize(complete(n), small_cfg(restarts=8))
        assert res.width >= COMPLETE_WIDTH[n] - 1e-6


def _finite_difference_error(rng, p, trials):
    """Worst relative gap between the analytic and a central-difference
    gradient of the objective under the lp norm."""
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(3, 7))
        g = random_graph(rng, n, 0.6)
        edge_index = np.array(g.sorted_edges(), dtype=int).reshape(-1, 2)
        x = rng.uniform(-1.5, 1.5, size=(n, 2))
        beta = float(rng.uniform(5, 200))
        mu = float(rng.uniform(0.5, 100))
        f, grad = objective_and_grad(x, edge_index, beta, mu, p)
        h = 1e-6
        num = np.zeros_like(x)
        for i in range(n):
            for d in range(2):
                xp = x.copy(); xp[i, d] += h
                xm = x.copy(); xm[i, d] -= h
                fp, _ = objective_and_grad(xp, edge_index, beta, mu, p)
                fm, _ = objective_and_grad(xm, edge_index, beta, mu, p)
                num[i, d] = (fp - fm) / (2 * h)
        scale = max(1.0, float(np.abs(grad).max()))
        worst = max(worst, float(np.abs(grad - num).max()) / scale)
    return worst


def test_gradient_matches_finite_differences():
    assert _finite_difference_error(np.random.default_rng(101), 2.0, 20) < 1e-5


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_gradient_matches_finite_differences_lp(p):
    assert _finite_difference_error(np.random.default_rng(103), p, 20) < 1e-5


def test_max_norm_objective_finite():
    """The p = 64 stand-in for the max norm stays finite, also where points
    share a coordinate or coincide (no 0 * inf)."""
    g = complete(4)
    edge_index = g.edge_array
    shared = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.5, 1.0]])
    same = np.array([[0.0, 0.0], [0.0, 0.0], [1e-9, 0.0], [0.3, 0.0]])
    for x in (shared, same):
        for beta, mu in ((10.0, 1.0), (1000.0, 1e6)):
            f, grad = objective_and_grad(x, edge_index, beta, mu, 64.0)
            assert np.isfinite(f) and np.all(np.isfinite(grad))


def test_batch_matches_single_calls():
    rng = np.random.default_rng(5)
    g = odd_wheel(5)
    x = rng.uniform(0.0, 3.0, size=(7, g.n, 2))
    for p in (2.0, 64.0):
        f, grad = objective_and_grad(x, g.edge_array, 50.0, 10.0, p)
        assert f.shape == (7,) and grad.shape == x.shape
        for r in range(len(x)):
            fr, gr = objective_and_grad(x[r], g.edge_array, 50.0, 10.0, p)
            assert f[r] == fr
            assert np.array_equal(grad[r], gr)


@pytest.mark.parametrize("n", [4, 5, 9])
def test_optimize_max_norm_complete(n):
    """K_n in the max norm has width ceil(sqrt(n)) - 1: a grid of side
    ceil(sqrt(n)) points is optimal."""
    res = optimize(complete(n), OptimizeConfig(norm=LINF, restarts=8))
    truth = math.ceil(math.sqrt(n)) - 1
    assert truth - 1e-9 <= res.width <= truth + 1e-3


@pytest.mark.parametrize("g, cfg", [
    (complete(4), OptimizeConfig(restarts=4, seed=3)),
    (odd_wheel(5), OptimizeConfig(restarts=4, seed=3)),
    (complete(5), OptimizeConfig(restarts=4, seed=3, norm=LINF)),
], ids=["K4", "W5", "K5-max-norm"])
def test_restart_independent_of_batch(g, cfg):
    """Restart r of a batch with seed s is the lone restart of seed s + r."""
    batched = optimize(g, cfg)
    alone = [optimize(g, OptimizeConfig(restarts=1, seed=cfg.seed + r,
                                        norm=cfg.norm))
             for r in range(cfg.restarts)]
    assert batched.width == pytest.approx(min(a.width for a in alone),
                                          abs=1e-9)
    same = alone[batched.restart_index]
    assert (batched.width, batched.iterations) == (same.width, same.iterations)
    assert batched.realization.points == same.realization.points


def test_brute_force_p3():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    w, r = brute_force(g, 0.05)
    assert w == pytest.approx(1.0, abs=0.05 * 3 * 3)
    assert evaluate(g, r, tol=1e-9).width == pytest.approx(w, abs=1e-12)


def test_brute_force_k3_coarse():
    w, r = brute_force(complete(3), 0.05)
    assert w == pytest.approx(1.0, abs=3 * 0.05 * 3)
    ev = evaluate(complete(3), r, tol=0.0)
    assert ev.min_edge_distance >= 1.0 - 1e-12


def test_brute_force_refusals():
    with pytest.raises(ParameterError):
        brute_force(complete(6), 0.1, max_n=5)
    with pytest.raises(ParameterError):
        brute_force(complete(5), 0.1)          # default cap is 4
    with pytest.raises(ParameterError):
        brute_force(complete(3), -0.5)


def test_oracle_agreement_small():
    g = complete(3)
    res = 0.05
    w_opt = optimize(g, small_cfg(restarts=8)).width
    w_grid, _ = brute_force(g, res)
    assert abs(w_opt - w_grid) <= 3 * res * g.n


def _grid_minimum(g, resolution, d_max):
    """Least width over every grid placement the oracle searches, found by
    enumerating them all: vertex 0 at the origin, vertex 1 at (a, 0) with
    a >= 0 on the grid axis, the others anywhere on the square grid."""
    steps = int(math.floor(d_max / resolution + 1e-9))
    axis = np.arange(-steps, steps + 1, dtype=float) * resolution
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    free = g.n - 2
    best = math.inf
    for x1 in axis[axis >= 0.0]:
        # every placement at once: point k of the n has shape (G,)*free + (2,)
        pts = [np.zeros(2), np.array([x1, 0.0])]
        for k in range(free):
            shape = [1] * free + [2]
            shape[k] = len(grid)
            pts.append(grid.reshape(shape))
        width = np.zeros((len(grid),) * free)
        ok = np.ones_like(width, dtype=bool)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                diff = pts[v] - pts[u]
                d = np.broadcast_to(np.sqrt((diff * diff).sum(axis=-1)),
                                    width.shape)
                width = np.maximum(width, d)
                if g.has_edge(u, v):
                    ok &= d >= 1.0 - 1e-12
        if ok.any():
            best = min(best, float(width[ok].min()))
    return best


@pytest.mark.parametrize("resolution", [0.25, 0.2])
@pytest.mark.parametrize("g", [
    complete(3),
    graph_from_edges(3, [(0, 1), (1, 2)]),
    cycle(4),
    graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
    complete(4),
], ids=["K3", "P3", "C4", "K4-e", "K4"])
def test_oracle_matches_enumeration(g, resolution):
    d_max = 2.0
    w, r = brute_force(g, resolution, d_max=d_max)
    assert w == _grid_minimum(g, resolution, d_max)
    assert evaluate(g, r, tol=1e-12).width == w
