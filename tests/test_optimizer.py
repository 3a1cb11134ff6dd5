"""Width minimization: descent, certification, and the grid oracle."""

import math

import numpy as np
import pytest

from planewidth.graphs import ParameterError, complete, cycle, graph_from_edges
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


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        g = random_graph(rng, n, 0.6)
        edge_index = np.array(g.sorted_edges(), dtype=int).reshape(-1, 2)
        x = rng.uniform(-1.5, 1.5, size=(n, 2))
        beta = float(rng.uniform(5, 200))
        mu = float(rng.uniform(0.5, 100))
        f, grad = objective_and_grad(x, edge_index, beta, mu)
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
        assert np.abs(grad - num).max() / scale < 1e-5


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
