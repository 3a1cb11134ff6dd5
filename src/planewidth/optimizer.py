"""Width minimization under unit edge-distance constraints.

Multistart first-order descent on a smoothed objective: log-sum-exp over all
pairwise distances (annealed sharpness) plus a quadratic hinge penalty on
short edges (annealed weight).  Every returned witness is rescaled and
re-verified exactly, so reported widths are always sound upper bounds.
A grid-search oracle covers tiny instances for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coloring import greedy_dsatur
from .geometry import INF, L2, NormSpec
from .graphs import ParameterError
from .realization import COMPLETE_WIDTH, Realization, evaluate, feasibilize, \
    realization_from_array

_TIE_EPS = 1e-12        # distance floor so gradients stay finite at ties


@dataclass(frozen=True)
class OptimizeConfig:
    restarts: int = 50
    max_iters: int = 2000
    seed: int = 0
    norm: NormSpec = L2
    beta_lo: float = 10.0
    beta_hi: float = 1000.0
    mu_lo: float = 1.0
    mu_hi: float = 1e6
    stages: int = 8
    tol: float = 1e-10

    def __post_init__(self):
        if self.restarts < 1:
            raise ParameterError("restarts must be >= 1")
        if self.beta_lo <= 0 or self.beta_hi < self.beta_lo:
            raise ParameterError("beta schedule must be positive increasing")
        if self.mu_lo <= 0 or self.mu_hi < self.mu_lo:
            raise ParameterError("mu schedule must be positive increasing")


@dataclass(frozen=True)
class OptimizeResult:
    realization: Realization
    width: float
    restart_index: int
    iterations: int


def _descent_p(norm):
    if norm.p == INF:
        return 64.0     # smooth stand-in; the final evaluate is exact
    return norm.p


def _pair_distances(x, p):
    """(dist matrix, diff tensor); dist floored at a tiny epsilon."""
    diff = x[:, None, :] - x[None, :, :]
    if p == 2.0:
        d = np.sqrt((diff * diff).sum(axis=2))
    else:
        d = (np.abs(diff) ** p).sum(axis=2) ** (1.0 / p)
    return np.maximum(d, _TIE_EPS), diff


def objective_and_grad(x, edge_index, beta, mu, p=2.0):
    """Smoothed width + penalty and its analytic gradient.

    x: (n, dim) points; edge_index: (m, 2) int array.
    Objective: softmax_beta over the n(n-1)/2 pairwise distances plus
    mu * sum over edges of max(0, 1 - dist)^2.
    """
    n = len(x)
    d, diff = _pair_distances(x, p)
    iu, ju = np.triu_indices(n, k=1)
    dv = d[iu, ju]
    m = dv.max()
    ex = np.exp(beta * (dv - m))
    f = m + math.log(ex.sum()) / beta
    w = ex / ex.sum()

    # d(dist_ij)/d(x_i) for the lp norm
    if p == 2.0:
        ddist = diff / d[:, :, None]
    else:
        ddist = np.sign(diff) * np.abs(diff) ** (p - 1.0) \
            * (d ** (1.0 - p))[:, :, None]

    grad = np.zeros_like(x)
    wfull = np.zeros_like(d)
    wfull[iu, ju] = w
    wfull[ju, iu] = w
    grad += (wfull[:, :, None] * ddist).sum(axis=1)

    if len(edge_index):
        eu, ev = edge_index[:, 0], edge_index[:, 1]
        de = d[eu, ev]
        short = de < 1.0
        if short.any():
            h = 1.0 - de[short]
            f += mu * float((h * h).sum())
            coef = -2.0 * mu * h
            su, sv = eu[short], ev[short]
            np.add.at(grad, su, coef[:, None] * ddist[su, sv])
            np.add.at(grad, sv, coef[:, None] * ddist[sv, su])
    return f, grad


def _descend(x, edge_index, beta, mu, p, iters, tol):
    """Backtracking gradient descent; returns (x, iterations used)."""
    f, g = objective_and_grad(x, edge_index, beta, mu, p)
    step = 0.1
    used = 0
    for _ in range(iters):
        used += 1
        gn2 = float((g * g).sum())
        if gn2 < 1e-24:
            break
        t = step
        accepted = False
        for _ in range(30):
            xn = x - t * g
            fn, gn = objective_and_grad(xn, edge_index, beta, mu, p)
            if fn <= f - 1e-4 * t * gn2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        decrease = f - fn
        x, f, g = xn, fn, gn
        step = min(t * 2.0, 10.0)
        if decrease < tol:
            break
    return x, f, used


def optimize(g, cfg=None):
    """Best feasible witness over deterministic multistart descent.

    Each restart draws points uniformly in a square sized to the expected
    optimal width, anneals sharpness and penalty over the stage schedule,
    then rescales so the shortest edge is exactly unit.  Ties between
    restarts go to the lowest restart index.
    """
    if cfg is None:
        cfg = OptimizeConfig()
    if g.m == 0:
        raise ParameterError("optimization needs at least one edge")
    edge_index = g.edge_array
    p = _descent_p(cfg.norm)
    chi_greedy = greedy_dsatur(g).k
    box = 1.0 + math.sqrt(chi_greedy)
    betas = np.geomspace(cfg.beta_lo, cfg.beta_hi, cfg.stages)
    mus = np.geomspace(cfg.mu_lo, cfg.mu_hi, cfg.stages)
    per_stage = max(cfg.max_iters // cfg.stages, 1)

    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        x = rng.uniform(0.0, box, size=(g.n, cfg.norm.dim))
        iters = 0
        for beta, mu in zip(betas, mus):
            x, _, used = _descend(x, edge_index, beta, mu, p,
                                  per_stage, cfg.tol)
            iters += used
        r = _certify(g, x, cfg.norm)
        ev = evaluate(g, r, tol=1e-9)
        if not ev.valid:
            continue
        if best is None or ev.width < best.width:
            best = OptimizeResult(r, ev.width, restart, iters)
    if best is None:
        raise AssertionError("no restart produced a certified witness")
    return best


def _certify(g, x, norm):
    """Rescale about the centroid so the minimum edge distance is exactly 1."""
    r = realization_from_array(x, norm)
    ev = evaluate(g, r, tol=0.0)
    if ev.min_edge_distance <= _TIE_EPS:
        # hopeless restart; let the validity check reject it
        return r
    centroid = x.mean(axis=0)
    scaled = centroid + (x - centroid) / ev.min_edge_distance
    r = realization_from_array(scaled, norm)
    return feasibilize(g, r)


# ---------------------------------------------------------------------------
# Grid-search oracle


def brute_force(g, resolution, d_max=None, max_n=4):
    """Exhaustive grid minimization of width for tiny graphs.

    Vertex 0 is pinned at the origin and vertex 1 to the nonnegative x axis;
    the rest range over a square grid.  Branch and bound prunes placements
    that cannot beat the incumbent, which never excludes a grid optimum, so
    the result is the exact grid minimum (within O(resolution * n) of the
    true optimum).
    """
    if max_n > 5:
        raise ParameterError("hard cap for the oracle is 5 vertices")
    if g.n > max_n:
        raise ParameterError(
            "oracle refuses n=%d (cap %d): grid search is exponential"
            % (g.n, max_n))
    if g.m == 0 or resolution <= 0:
        raise ParameterError("need at least one edge and positive resolution")
    if g.n < 2:
        raise ParameterError("need at least two vertices")
    if d_max is None:
        k = greedy_dsatur(g).k
        ub = COMPLETE_WIDTH[k] if k <= 8 else math.sqrt(2.0 * math.sqrt(3.0)
                                                        / math.pi * k) + 1.0
        d_max = 1.0 + ub

    adj = g.adjacency()
    steps = int(math.floor(d_max / resolution + 1e-9))
    axis = np.arange(-steps, steps + 1, dtype=float) * resolution
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    eps = 1e-12

    best = {"width": math.inf, "points": None}

    def place(placed, order_pos):
        v = order_pos
        if v == g.n:
            return
        pts = np.array(placed)
        dists = np.linalg.norm(grid[:, None, :] - pts[None, :, :], axis=2)
        mask = np.ones(len(grid), dtype=bool)
        for idx, u in enumerate(range(v)):
            if u in adj[v]:
                mask &= dists[:, idx] >= 1.0 - eps
            mask &= dists[:, idx] < best["width"] - eps
        if np.all(pts[:, 1] == 0.0):
            # everything so far on the x axis: kill the reflection symmetry
            mask &= grid[:, 1] >= 0.0
        cand = np.nonzero(mask)[0]
        if len(cand) == 0:
            return
        cur_width = 0.0
        if len(pts) > 1:
            cur_width = float(np.max(np.linalg.norm(
                pts[:, None, :] - pts[None, :, :], axis=2)))
        reach = np.maximum(dists[cand].max(axis=1), cur_width)
        if v == g.n - 1:
            i = int(np.argmin(reach))
            if reach[i] < best["width"] - eps:
                best["width"] = float(reach[i])
                best["points"] = placed + [tuple(grid[cand[i]])]
            return
        order = np.argsort(reach, kind="stable")
        for ci in order:
            if reach[ci] >= best["width"] - eps:
                break
            place(placed + [tuple(grid[cand[ci]])], v + 1)

    # vertex 1 on the nonnegative x axis
    for x1 in axis[axis >= 0.0]:
        if 1 in adj[0] and x1 < 1.0 - eps:
            continue
        if x1 >= best["width"] - eps and x1 > 0:
            continue
        if g.n == 2:
            if x1 < best["width"] - eps:
                best["width"] = float(x1)
                best["points"] = [(0.0, 0.0), (float(x1), 0.0)]
            continue
        place([(0.0, 0.0), (float(x1), 0.0)], 2)

    if best["points"] is None:
        raise AssertionError("oracle found no feasible grid placement")
    r = realization_from_array(np.array(best["points"]), L2)
    return best["width"], r
