"""Width minimization under unit edge-distance constraints.

Multistart first-order descent on a smoothed objective: log-sum-exp over all
pairwise distances (annealed sharpness) plus a quadratic hinge penalty on
short edges (annealed weight).  Every returned witness is rescaled and
re-verified exactly, so reported widths are always sound upper bounds.
A grid-search oracle covers tiny instances for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import greedy_dsatur
from .geometry import INF, L2, NormSpec, lp_lengths
from .graphs import ParameterError
from .realization import COMPLETE_WIDTH, InfeasibleError, Realization, \
    evaluate, feasibilize, realization_from_array

_TIE_EPS = 1e-12        # distance floor so gradients stay finite at ties
_STAGES = 8             # annealing stages, geometric in sharpness and penalty
_BETAS = np.geomspace(10.0, 1000.0, _STAGES)
_MUS = np.geomspace(1.0, 1e6, _STAGES)
_TOL = 1e-10            # a stage stops once a step gains less than this


@dataclass(frozen=True)
class OptimizeConfig:
    restarts: int = 50
    max_iters: int = 2000
    seed: int = 0
    norm: NormSpec = L2

    def __post_init__(self):
        if self.restarts < 1:
            raise ParameterError("restarts must be >= 1")


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


def _pair_index(n, edge_index):
    """Pairs i < j in ``triu_indices`` order, each edge's position among
    them, and the (n, P) incidence matrix (+1 at i, -1 at j) that scatters
    pair contributions back onto the points."""
    iu, ju = np.triu_indices(n, k=1)
    u = np.minimum(edge_index[:, 0], edge_index[:, 1])
    v = np.maximum(edge_index[:, 0], edge_index[:, 1])
    pos = u * n - u * (u + 1) // 2 + (v - u - 1)
    inc = np.zeros((n, len(iu)))
    k = np.arange(len(iu))
    inc[iu, k] = 1.0
    inc[ju, k] = -1.0
    return iu, ju, pos, inc


def objective_and_grad(x, edge_index, beta, mu, p=2.0, pairs=None):
    """Smoothed width + penalty and its analytic gradient.

    x: (n, dim) points, or an (R, n, dim) batch; edge_index: (m, 2) int
    array of distinct edges u != v, as in ``Graph.edge_array``; pairs:
    ``_pair_index(n, edge_index)``, built here if omitted.
    Objective: softmax_beta over the n(n-1)/2 pairwise distances plus
    mu * sum over edges of max(0, 1 - dist)^2.  Returns a float and an
    (n, dim) gradient, or (R,) values and an (R, n, dim) gradient.
    """
    if pairs is None:
        pairs = _pair_index(x.shape[-2], edge_index)
    iu, ju, pos, inc = pairs
    # np.take keeps the result C-ordered, so every sum over pairs runs in
    # the same order for a lone restart as for a row of a batch
    diff = np.take(x, iu, axis=-2) - np.take(x, ju, axis=-2)
    d = np.maximum(lp_lengths(diff, p), _TIE_EPS)
    m = d.max(axis=-1)
    ex = np.exp(beta * (d - m[..., None]))
    s = ex.sum(axis=-1)
    w = ex / s[..., None]
    h = np.maximum(1.0 - np.take(d, pos, axis=-1), 0.0)
    f = m + np.log(s) / beta + mu * (h * h).sum(axis=-1)
    w[..., pos] -= 2.0 * mu * h             # the hinge, folded into the weights

    # d(dist_ij)/d(x_i) for the lp norm; bounded, since |diff| <= d
    if p == 2.0:
        ddist = diff / d[..., None]
    else:
        ddist = np.sign(diff) * (np.abs(diff) / d[..., None]) ** (p - 1.0)
    grad = inc @ (w[..., None] * ddist)
    return (float(f) if x.ndim == 2 else f), grad


def _descend(x, edge_index, pairs, beta, mu, p, iters):
    """Backtracking gradient descent on an (R, n, dim) batch of restarts.

    Each restart keeps its own step and Armijo test and stops on its own:
    squared gradient norm below 1e-24, 30 halvings without a decrease, or
    a step that gains less than ``_TOL``.  Returns (x, iterations used per
    restart).
    """
    x = x.copy()
    f, g = objective_and_grad(x, edge_index, beta, mu, p, pairs)
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
        gain = np.full(len(live), -np.inf)     # -inf: no step accepted
        pending = np.arange(len(live))
        for _ in range(30):
            rows = live[pending]
            xn = x[rows] - t[pending, None, None] * g[rows]
            fn, gn = objective_and_grad(xn, edge_index, beta, mu, p, pairs)
            ok = fn <= f[rows] - 1e-4 * t[pending] * gn2[pending]
            done, rows = pending[ok], rows[ok]
            gain[done] = f[rows] - fn[ok]
            x[rows], f[rows], g[rows] = xn[ok], fn[ok], gn[ok]
            step[rows] = np.minimum(t[done] * 2.0, 10.0)
            pending = pending[~ok]
            if not len(pending):
                break
            t[pending] *= 0.5
        live = live[gain >= _TOL]
    return x, used


def optimize(g, cfg=None):
    """Best feasible witness over deterministic multistart descent.

    Each restart draws points uniformly in a square sized to the expected
    optimal width, anneals sharpness and penalty over the stage schedule,
    then rescales so the shortest edge is exactly unit.  All restarts
    descend together as one batch, each on its own step schedule, so a
    restart's result does not depend on the others.  Ties between restarts
    go to the lowest restart index.
    """
    if cfg is None:
        cfg = OptimizeConfig()
    if g.m == 0:
        raise ParameterError("optimization needs at least one edge")
    edge_index = g.edge_array
    pairs = _pair_index(g.n, edge_index)
    p = _descent_p(cfg.norm)
    chi_greedy = greedy_dsatur(g).k
    box = 1.0 + math.sqrt(chi_greedy)
    per_stage = max(cfg.max_iters // _STAGES, 1)

    x = np.stack([np.random.default_rng(cfg.seed + restart).uniform(
        0.0, box, size=(g.n, cfg.norm.dim)) for restart in range(cfg.restarts)])
    iters = np.zeros(cfg.restarts, dtype=int)
    for beta, mu in zip(_BETAS, _MUS):
        x, used = _descend(x, edge_index, pairs, beta, mu, p, per_stage)
        iters += used

    best = None
    for restart in range(cfg.restarts):
        try:
            r = feasibilize(g, realization_from_array(x[restart], cfg.norm))
        except InfeasibleError:
            continue
        ev = evaluate(g, r, tol=1e-9)
        if not ev.valid:
            continue
        if best is None or ev.width < best.width:
            best = OptimizeResult(r, ev.width, restart, int(iters[restart]))
    if best is None:
        raise AssertionError("no restart produced a certified witness")
    return best


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
        d_max = 1.0 + COMPLETE_WIDTH[greedy_dsatur(g).k]    # k <= n <= 5

    adj = g.adjacency()
    steps = int(math.floor(d_max / resolution + 1e-9))
    axis = np.arange(-steps, steps + 1, dtype=float) * resolution
    xs, ys = (c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
    eps = 1e-12

    best = {"width": math.inf, "points": None}

    def lengths(xs, ys, q):
        """L2 distances from the points (xs, ys) to the point q."""
        dx, dy = xs - q[0], ys - q[1]
        return np.sqrt(dx * dx + dy * dy)

    def allowed(v, ys, cols, on_axis):
        """Mask of the points where vertex v keeps unit edges (and, while
        everything so far is on the x axis, the reflection symmetry)."""
        mask = ys >= 0.0 if on_axis else np.ones(len(ys), dtype=bool)
        for u in adj[v]:
            if u < v:
                mask &= cols[u] >= 1.0 - eps
        return mask

    def place(v, points, xs, ys, cols, far, width, on_axis):
        """Try the grid points (xs, ys) for vertex v, given ``points`` for
        0..v-1: ``cols`` holds their distances to each placed point, ``far``
        the largest of those and ``width`` the placed diameter.

        A point whose ``far`` reaches the incumbent is dropped for the whole
        subtree: ``far`` only grows as vertices are added.
        """
        if v == g.n - 1:
            # the argmin over all allowed points is the argmin over those
            # with far below the incumbent whenever it can improve on it
            reach = np.maximum(far, width)
            reach[~allowed(v, ys, cols, on_axis)] = np.inf
            i = int(np.argmin(reach))
            if reach[i] < best["width"] - eps:
                best["width"] = float(reach[i])
                best["points"] = points + [(xs[i], ys[i])]
            return
        keep = far < best["width"] - eps
        xs, ys, far = xs[keep], ys[keep], far[keep]
        cols = [c[keep] for c in cols]
        cand = np.nonzero(allowed(v, ys, cols, on_axis))[0]
        reach = np.maximum(far[cand], width)
        for ci in np.argsort(reach, kind="stable"):
            if reach[ci] >= best["width"] - eps:
                break
            q = (xs[cand[ci]], ys[cand[ci]])
            col = lengths(xs, ys, q)
            place(v + 1, points + [q], xs, ys, cols + [col],
                  np.maximum(far, col), float(reach[ci]),
                  on_axis and q[1] == 0.0)

    # vertex 1 on the nonnegative x axis
    col0 = lengths(xs, ys, (0.0, 0.0))
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
        col1 = lengths(xs, ys, (x1, 0.0))
        # the diameter of the first two points is sqrt(x1 * x1) == x1
        place(2, [(0.0, 0.0), (float(x1), 0.0)], xs, ys, [col0, col1],
              np.maximum(col0, col1), float(x1), True)

    if best["points"] is None:
        raise AssertionError("oracle found no feasible grid placement")
    r = realization_from_array(np.array(best["points"]), L2)
    return best["width"], r
