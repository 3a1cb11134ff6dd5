"""Width minimization: descent, certification, and the grid oracle."""

import math

import numpy as np
import pytest

from planewidth import optimizer
from planewidth.coloring import greedy_dsatur
from planewidth.geometry import LINE, LINF, NormSpec, lp_lengths
from planewidth.graphs import (
    ParameterError, complete, cycle, graph_from_edges, odd_wheel,
)
from planewidth.optimizer import (
    OptimizeConfig, brute_force, objective_and_grad, optimize,
)
from planewidth.realization import COMPLETE_WIDTH, evaluate

from conftest import random_graph


def small_cfg(restarts=6, seed=0):
    return OptimizeConfig(restarts=restarts, seed=seed)


def one_restart(x, edge_index, beta, mu, p=2.0):
    """``objective_and_grad`` on the lone (n, dim) restart x, as a batch of
    one: its value and its (n, dim) gradient."""
    pairs = optimizer._pair_index(len(x), edge_index)
    f, grad = objective_and_grad(x[None], pairs, beta, mu, p)
    return f[0], grad[0]


def test_config_validation():
    with pytest.raises(ParameterError):
        OptimizeConfig(restarts=0)
    assert OptimizeConfig(restarts=np.int64(2), seed=np.int64(0)).restarts == 2


@pytest.mark.parametrize("kwargs, fragment", [
    ({"restarts": 2.5}, "restarts must be an integer >= 1"),
    ({"restarts": "3"}, "restarts must be an integer >= 1"),
    ({"seed": 1.0}, "seed must be an integer >= 0"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
])
def test_config_rejects_bad_restarts_and_seed(kwargs, fragment):
    with pytest.raises(ParameterError, match=fragment):
        OptimizeConfig(**kwargs)


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
        f, grad = one_restart(x, edge_index, beta, mu, p)
        h = 1e-6
        num = np.zeros_like(x)
        for i in range(n):
            for d in range(2):
                xp = x.copy(); xp[i, d] += h
                xm = x.copy(); xm[i, d] -= h
                fp, _ = one_restart(xp, edge_index, beta, mu, p)
                fm, _ = one_restart(xm, edge_index, beta, mu, p)
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
            f, grad = one_restart(x, edge_index, beta, mu, 64.0)
            assert np.isfinite(f) and np.all(np.isfinite(grad))


def test_max_norm_underflow_stays_finite():
    """Under p = 64, 3e-6 ** 64 underflows to 0; the length must still be
    3e-6, not the 1e-12 floor, or (|diff| / d) ** 63 overflows."""
    x = np.array([[0.0, 0.0], [3e-6, 0.0]])
    f, grad = one_restart(x, complete(2).edge_array, 10.0, 1.0, 64.0)
    assert f == pytest.approx(3e-6 + (1.0 - 3e-6) ** 2, rel=1e-12)
    w = 1.0 - 2.0 * (1.0 - 3e-6)        # softmax weight minus the hinge
    assert np.allclose(grad, [[-w, 0.0], [w, 0.0]], rtol=1e-12, atol=0.0)
    assert lp_lengths(np.array([3e-6, -1e-6]), 64.0) == pytest.approx(
        3e-6, rel=1e-15)
    assert lp_lengths(np.zeros((3, 2)), 64.0).tolist() == [0.0] * 3
    # rows whose sum does not underflow keep the plain formula's bits
    d = np.array([[3e-6, 0.0], [0.3, 0.2], [1e-4, 2e-4]])
    plain = np.power((d ** 64.0).sum(axis=1), 1.0 / 64.0)
    got = lp_lengths(d, 64.0)
    assert got[1:].tobytes() == plain[1:].tobytes() and plain[0] == 0.0


def test_optimize_max_norm_collapsed_pair():
    """W_5 in the max norm: restart 5 brings two vertices within 2e-5 of
    each other, where sum |diff| ** 64 underflows; that overflowed the
    gradient (a RuntimeWarning, an error in this suite) and froze the
    restart on NaN at 2.000256."""
    res = optimize(odd_wheel(5), OptimizeConfig(norm=LINF, restarts=10))
    assert 1.0 <= res.width < 1.005
    alone = optimize(odd_wheel(5), OptimizeConfig(norm=LINF, restarts=1,
                                                  seed=5))
    assert alone.width < 2.0 + 1e-8


def test_batch_matches_single_calls():
    rng = np.random.default_rng(5)
    g = odd_wheel(5)
    x = rng.uniform(0.0, 3.0, size=(7, g.n, 2))
    pairs = optimizer._pair_index(g.n, g.edge_array)
    for p in (2.0, 64.0):
        f, grad = objective_and_grad(x, pairs, 50.0, 10.0, p)
        assert f.shape == (7,) and grad.shape == x.shape
        for r in range(len(x)):
            fr, gr = one_restart(x[r], g.edge_array, 50.0, 10.0, p)
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
        brute_force(complete(6), 0.1)
    with pytest.raises(ParameterError):
        brute_force(complete(5), 0.1)          # the cap is 4
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
                if (u, v) in g.edges:
                    ok &= d >= 1.0 - 1e-12
        if ok.any():
            best = min(best, float(width[ok].min()))
    return best


@pytest.mark.parametrize("resolution", [0.25, 0.2])
@pytest.mark.parametrize("g", [
    complete(2),
    complete(3),
    graph_from_edges(3, [(0, 1), (1, 2)]),
    graph_from_edges(3, [(0, 2), (1, 2)]),
    cycle(4),
    graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
    complete(4),
], ids=["K2", "K3", "P3", "P3-0-not-1", "C4", "K4-e", "K4"])
def test_oracle_matches_enumeration(g, resolution):
    d_max = 1.0 + COMPLETE_WIDTH[greedy_dsatur(g).k]     # the oracle's grid
    w, r = brute_force(g, resolution)
    assert w == _grid_minimum(g, resolution, d_max)
    assert evaluate(g, r, tol=1e-12).width == w
    # vertex 0 at the origin, vertex 1 on the nonnegative x axis
    assert r.coords[0].tolist() == [0.0, 0.0]
    assert r.coords[1, 1] == 0.0 <= r.coords[1, 0]


# ---------------------------------------------------------------------------
# The batched backtracking ladder


def reference_descend(x, pairs, beta, mu, p, iters):
    """``_descend`` trying one halving per objective call, as it was before
    the ladder: the steps, stops and iteration counts it must reproduce."""
    x = x.copy()
    f, g = objective_and_grad(x, pairs, beta, mu, p)
    step = np.full(len(x), 0.1)
    used = np.zeros(len(x), dtype=int)
    live = np.arange(len(x))
    for _ in range(iters):
        if not len(live):
            break
        used[live] += 1
        gn2 = (g[live].reshape(len(live), -1) ** 2).sum(axis=1)
        moving = gn2 >= 1e-24
        live, gn2 = live[moving], gn2[moving]
        t = step[live]
        gain = np.full(len(live), -np.inf)
        pending = np.arange(len(live))
        for _ in range(30):
            rows = live[pending]
            xn = x[rows] - t[pending, None, None] * g[rows]
            fn, gn = objective_and_grad(xn, pairs, beta, mu, p)
            ok = fn <= f[rows] - 1e-4 * t[pending] * gn2[pending]
            done, rows = pending[ok], rows[ok]
            gain[done] = f[rows] - fn[ok]
            x[rows], f[rows], g[rows] = xn[ok], fn[ok], gn[ok]
            step[rows] = np.minimum(t[done] * 2.0, 10.0)
            pending = pending[~ok]
            if not len(pending):
                break
            t[pending] *= 0.5
        live = live[gain >= optimizer._TOL]
    return x, used


@pytest.mark.parametrize("p", [2.0, 64.0], ids=["L2", "p64"])
def test_ladder_matches_one_halving_per_call(p):
    """Every annealing stage gives the same bits and iteration counts as
    the one-halving-per-call descent, on random graphs and restarts."""
    rng = np.random.default_rng(808)
    for _ in range(3):
        n = int(rng.integers(4, 8))
        g = random_graph(rng, n, 0.5)
        if g.m == 0:
            continue
        pairs = optimizer._pair_index(n, g.edge_array)
        x = rng.uniform(0.0, 3.0, size=(5, n, 2))
        for beta, mu in zip(optimizer._BETAS, optimizer._MUS):
            want = reference_descend(x, pairs, beta, mu, p, 60)
            got = optimizer._descend(x, pairs, beta, mu, p, 60)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1])
            x = got[0]


def test_ladder_halvings_in_order(monkeypatch):
    """A restart that never gains tries t, t/2, ..., t/2**29, three per
    call, then stops; one that first gains at t/16 takes t/16, and stops
    in its next iteration, where no step gains."""
    tried = []

    def stub(x, pairs, beta, mu, p):
        v = x[:, 0, 0]
        tried.append(v.copy())
        gains = (v > 5.0) & (10.0 - v <= 1.5 * 0.1 / 16)
        f = np.zeros(len(x)) if len(tried) == 1 else np.where(gains, -1.0, 1.0)
        return f, np.ones_like(x)

    monkeypatch.setattr(optimizer, "objective_and_grad", stub)
    x0 = np.array([0.0, 10.0]).reshape(2, 1, 1)
    x, used = optimizer._descend(x0, None, 10.0, 1.0, 2.0, 5)
    calls = tried[1:]
    assert [len(v) for v in calls] == [6, 6] + [3] * 8 + [3] * 10
    steps = -np.concatenate([v[v < 5.0] for v in calls])
    assert steps.tolist() == (0.1 * 0.5 ** np.arange(30)).tolist()
    assert x[0, 0, 0] == 0.0 and x[1, 0, 0] == 10.0 - 0.1 / 16
    assert used.tolist() == [1, 2]


def test_packed_live_set_matches_reference():
    """Restarts that stop in different iterations, for different reasons,
    leave the bits and counts of the one-halving-per-call descent: the one
    on a single point (gradient exactly 0) and the one with a NaN gradient
    stop in iteration 1, restart 4 gains less than _TOL in iteration 81,
    and the rest run to the cap."""
    g = odd_wheel(5)
    pairs = optimizer._pair_index(g.n, g.edge_array)
    beta, mu = optimizer._BETAS[0], optimizer._MUS[0]
    x = np.random.default_rng(3).uniform(0.0, 3.0, size=(8, g.n, 2))
    x[6] = 1.5
    x[7, 2, 0] = np.nan
    assert not one_restart(x[6], g.edge_array, beta, mu)[1].any()
    counts = {}
    for rows, iters in [(slice(None), 85), (slice(None), 1), (slice(4, 5), 85),
                        (slice(6, 7), 85), (slice(4, 5), 80)]:
        want = reference_descend(x[rows], pairs, beta, mu, 2.0, iters)
        got = optimizer._descend(x[rows], pairs, beta, mu, 2.0, iters)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
        counts[rows.start, iters] = got
    assert counts[None, 85][1].tolist() == [85] * 4 + [81, 85, 1, 1]
    assert counts[None, 1][1].tolist() == [1] * 8
    # restart 4's last step is accepted, and gains less than _TOL
    before, last = counts[4, 80][0], counts[4, 85][0]
    f0 = one_restart(before[0], g.edge_array, beta, mu)[0]
    f1 = one_restart(last[0], g.edge_array, beta, mu)[0]
    assert 0.0 < f0 - f1 < optimizer._TOL


#: search's optimize operations: (width hex, restart index, iterations),
#: as the one-halving-per-call descent gave them.
SEARCH_PINNED = [
    ("K_3", complete(3), None, ("0x1.0000000000000p+0", 1, 202)),
    ("K_4", complete(4), None, ("0x1.6a09e667f3bcfp+0", 1, 132)),
    ("K_5", complete(5), None, ("0x1.9e3779cd590f2p+0", 9, 139)),
    ("K_6", complete(6), None, ("0x1.e6f0e7cf57907p+0", 6, 137)),
    ("K_7", complete(7), None, ("0x1.0000000d6b556p+1", 9, 118)),
    ("W_5", odd_wheel(5), None, ("0x1.6a0a01fb3079bp+0", 8, 555)),
    ("W_7", odd_wheel(7), None, ("0x1.6a0a036c74c05p+0", 4, 689)),
    ("K_4 max", complete(4), LINF, ("0x1.0000000000142p+0", 3, 138)),
    ("K_5 max", complete(5), LINF, ("0x1.0000000bd0b88p+1", 4, 465)),
    ("K_9 max", complete(9), LINF, ("0x1.0000ae2ff690fp+1", 6, 489)),
]


def test_search_results_pinned():
    for name, g, norm, want in SEARCH_PINNED:
        cfg = (OptimizeConfig(restarts=10) if norm is None
               else OptimizeConfig(restarts=8, norm=norm))
        res = optimize(g, cfg)
        assert (res.width.hex(), res.restart_index, res.iterations) == want, \
            name


#: (width hex, restart index, iterations) of optimize with 6 restarts on
#: the line and at p = 3, as the descent gave them before the live
#: restarts were packed.
LINE_AND_P3_PINNED = [
    ("K_3 line", complete(3), LINE, ("0x1.0000000bed6dbp+1", 0, 168)),
    ("C_5 line", cycle(5), LINE, ("0x1.0000000c142dbp+1", 4, 442)),
    ("P_4 line", graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]), LINE,
     ("0x1.00028bf6fdc5ep+0", 4, 659)),
    ("K_4 p3", complete(4), NormSpec(3.0, 2), ("0x1.428a2f98d8a64p+0", 3, 127)),
    ("W_5 p3", odd_wheel(5), NormSpec(3.0, 2), ("0x1.428a63b84fe7fp+0", 3, 524)),
    ("C_5 p3", cycle(5), NormSpec(3.0, 2), ("0x1.00000018b017cp+0", 2, 400)),
]


@pytest.mark.parametrize("g, norm, want", [row[1:] for row in
                                           LINE_AND_P3_PINNED],
                         ids=[row[0] for row in LINE_AND_P3_PINNED])
def test_line_and_p3_results_pinned(g, norm, want):
    res = optimize(g, OptimizeConfig(restarts=6, norm=norm))
    assert (res.width.hex(), res.restart_index, res.iterations) == want
