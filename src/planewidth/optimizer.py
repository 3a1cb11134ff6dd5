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
from .graphs import CertificateError, InternalConsistencyError, ParameterError
from .realization import COMPLETE_WIDTH, Realization, evaluate, feasibilize

_TIE_EPS = 1e-12        # distance floor so gradients stay finite at ties
_STAGES = 8             # annealing stages, geometric in sharpness and penalty
_STAGE_ITERS = 250      # descent iterations per stage and restart, at most
_BETAS = np.geomspace(10.0, 1000.0, _STAGES)
_MUS = np.geomspace(1.0, 1e6, _STAGES)
_TOL = 1e-10            # a stage stops once a step gains less than this
_HALVINGS = 30          # a step halved this often without a decrease stops
_LADDER = 3             # halvings tried per objective call; divides _HALVINGS


@dataclass(frozen=True)
class OptimizeConfig:
    restarts: int = 50
    seed: int = 0
    norm: NormSpec = L2

    def __post_init__(self):
        for name, low in (("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ParameterError("%s must be an integer >= %d, got %r"
                                     % (name, low, value))


@dataclass(frozen=True)
class OptimizeResult:
    realization: Realization
    width: float
    restart_index: int
    iterations: int


def _pair_index(n, edge_index):
    """Pairs i < j in ``triu_indices`` order, each edge's position among
    them, the (n, P) incidence matrix (+1 at i, -1 at j) that scatters
    pair contributions back onto the points, and a 0/1 edge mask."""
    iu, ju = np.triu_indices(n, k=1)
    u = np.minimum(edge_index[:, 0], edge_index[:, 1])
    v = np.maximum(edge_index[:, 0], edge_index[:, 1])
    pos = u * n - u * (u + 1) // 2 + (v - u - 1)
    inc = np.zeros((n, len(iu)))
    k = np.arange(len(iu))
    inc[iu, k] = 1.0
    inc[ju, k] = -1.0
    return iu, ju, pos, inc, np.bincount(pos, minlength=len(iu)) * 1.0


def objective_and_grad(x, edge_index, beta, mu, p=2.0, pairs=None):
    """Smoothed width + penalty and its analytic gradient.

    x: (n, dim) points, or an (R, n, dim) batch; edge_index: (m, 2) int
    array of distinct edges u != v, as in ``Graph.edge_array``; pairs:
    ``_pair_index(n, edge_index)``, built here if omitted.
    Objective: softmax_beta over the n(n-1)/2 pairwise distances plus
    mu * sum over edges of max(0, 1 - dist)^2.  Returns a float and an
    (n, dim) gradient, or (R,) values and an (R, n, dim) gradient.
    The hinge is masked to the edges, so it folds into the pair weights.
    """
    if pairs is None:
        pairs = _pair_index(x.shape[-2], edge_index)
    iu, ju, pos, inc, on_edge = pairs
    # take keeps the result C-ordered, so every sum over pairs runs in
    # the same order for a lone restart as for a row of a batch
    diff = x.take(iu, axis=-2) - x.take(ju, axis=-2)
    d = np.maximum(lp_lengths(diff, p), _TIE_EPS)
    m = d.max(axis=-1)
    ex = np.exp(beta * (d - m[..., None]))
    s = ex.sum(axis=-1)
    hinge = np.maximum(1.0 - d, 0.0) * on_edge
    h = hinge.take(pos, axis=-1)
    f = m + np.log(s) / beta + mu * (h * h).sum(axis=-1)
    w = ex / s[..., None] - (2.0 * mu) * hinge

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
    squared gradient norm below 1e-24 (counting one more iteration),
    ``_HALVINGS`` halvings without a decrease, or a step that gains less
    than ``_TOL``.  One objective call tries the next ``_LADDER`` halvings
    t, t/2, t/4 of every pending restart at once, and each takes the first
    that passes: the step one halving per call would take, since t * 2**-j
    is exact and the rows of a batch are independent.  The arrays hold the
    live restarts only, in row order, and each iteration's first call
    covers them all; those that fail all its rungs go on to a subset.
    Returns (x, iterations used per restart).
    """
    out, used = np.empty_like(x), np.full(len(x), iters)
    live = np.arange(len(x))            # the rows in x of the live restarts
    first, rungs = _LADDER * live, 0.5 ** np.arange(_LADDER)
    f, g = objective_and_grad(x, edge_index, beta, mu, p, pairs)
    step, gain = np.full(len(x), 0.1), np.full(len(x), np.inf)

    def attempt(x, g, f, gn2, t):
        """Which rows pass at a rung of t, and their state at the first."""
        tr = t[:, None] * rungs
        xn = (x[:, None] - tr[..., None, None] * g[:, None]
              ).reshape(-1, *x.shape[1:])
        fn, gn = objective_and_grad(xn, edge_index, beta, mu, p, pairs)
        ok = fn.reshape(tr.shape) <= f[:, None] - 1e-4 * tr * gn2[:, None]
        pick = first[:len(t)] + ok.argmax(axis=1)
        return (ok.any(axis=1), xn[pick], fn[pick], gn[pick],
                np.minimum(tr.ravel()[pick] * 2.0, 10.0))

    for it in range(iters):
        gn2 = (g.reshape(len(x), -1) ** 2).sum(axis=1)
        went_on = gain >= _TOL          # did not stop in the last iteration
        keep = went_on & (gn2 >= 1e-24)  # a stop here counts this iteration
        if not keep.all():
            stop = ~keep
            out[live[stop]], used[live[stop]] = x[stop], it + went_on[stop]
            live, x, f, g, gn2, step = (a[keep] for a in
                                        (live, x, f, g, gn2, step))
            if not len(live):
                break
        passed, xn, fn, gn, tn = attempt(x, g, f, gn2, step)
        gain = f - fn
        if not passed.all():
            rows = (~passed).nonzero()[0]       # failed every rung so far
            gain[rows], xn[rows], t = -np.inf, x[rows], step[rows]
            for _ in range(_HALVINGS // _LADDER - 1):
                t = t * 0.5 ** _LADDER
                ok, xs, fs, gs, ts = attempt(x[rows], g[rows], f[rows],
                                             gn2[rows], t)
                done = rows[ok]
                gain[done] = f[done] - fs[ok]
                xn[done], fn[done], gn[done], tn[done] = (
                    xs[ok], fs[ok], gs[ok], ts[ok])
                rows, t = rows[~ok], t[~ok]
                if not len(rows):
                    break
        x, f, g, step = xn, fn, gn, tn
    out[live] = x
    return out, used


def optimize(g, cfg):
    """Best feasible witness over deterministic multistart descent.

    Each restart draws points uniformly in a square sized to the expected
    optimal width, anneals sharpness and penalty over the stage schedule,
    then rescales so the shortest edge is exactly unit.  All restarts
    descend together as one batch, each on its own step schedule, so a
    restart's result does not depend on the others.  Ties between restarts
    go to the lowest restart index.
    """
    if g.m == 0:
        raise ParameterError("optimization needs at least one edge")
    edge_index = g.edge_array
    pairs = _pair_index(g.n, edge_index)
    # p = 64 is a smooth stand-in for the max norm; the final evaluate is exact
    p = 64.0 if cfg.norm.p == INF else cfg.norm.p
    chi_greedy = greedy_dsatur(g).k
    box = 1.0 + math.sqrt(chi_greedy)

    x = np.stack([np.random.default_rng(cfg.seed + restart).uniform(
        0.0, box, size=(g.n, cfg.norm.dim)) for restart in range(cfg.restarts)])
    iters = np.zeros(cfg.restarts, dtype=int)
    for beta, mu in zip(_BETAS, _MUS):
        x, used = _descend(x, edge_index, pairs, beta, mu, p, _STAGE_ITERS)
        iters += used

    best = None
    for restart in range(cfg.restarts):
        try:
            r = feasibilize(g, Realization(x[restart], cfg.norm))
        except CertificateError:
            continue
        ev = evaluate(g, r)
        if not ev.valid:
            continue
        if best is None or ev.width < best.width:
            best = OptimizeResult(r, ev.width, restart, int(iters[restart]))
    if best is None:
        raise InternalConsistencyError("no restart produced a certified witness")
    return best


# ---------------------------------------------------------------------------
# Grid-search oracle


def brute_force(g, resolution):
    """Exhaustive grid minimization of width for tiny graphs.

    Vertex 0 is pinned at the origin and vertex 1 to the nonnegative x axis;
    the rest range over a square grid.  Branch and bound prunes placements
    that cannot beat the incumbent, which never excludes a grid optimum, so
    the result is the exact grid minimum (within O(resolution * n) of the
    true optimum).
    """
    if g.n > 4:
        raise ParameterError("oracle refuses n=%d (cap 4): grid search is "
                             "exponential" % g.n)
    if g.m == 0 or resolution <= 0:
        raise ParameterError("need at least one edge and positive resolution")
    d_max = 1.0 + COMPLETE_WIDTH[greedy_dsatur(g).k]    # k <= n <= 4

    earlier = [g.edge_array[g.edge_array[:, 1] == v, 0].tolist()
               for v in range(g.n)]     # the neighbours placed before v
    steps = int(math.floor(d_max / resolution + 1e-9))
    axis = np.arange(-steps, steps + 1, dtype=float) * resolution
    xs, ys = (c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
    eps = 1e-12
    best_width, best_points = math.inf, None

    def lengths(xs, ys, q):
        """L2 distances from the points (xs, ys) to the point q."""
        dx, dy = xs - q[0], ys - q[1]
        return np.sqrt(dx * dx + dy * dy)

    def allowed(v, xs, ys, cols, on_axis):
        """Mask of the points where vertex v keeps unit edges and the
        symmetry: vertex 1 on the nonnegative x axis, and nothing below it
        while everything so far is on the x axis."""
        mask = ys >= 0.0 if on_axis else np.ones(len(ys), dtype=bool)
        if v == 1:
            mask &= (ys == 0.0) & (xs >= 0.0)
        for u in earlier[v]:
            mask &= cols[u] >= 1.0 - eps
        return mask

    def place(v, points, xs, ys, cols, far, width, on_axis):
        """Try the grid points (xs, ys) for vertex v, given ``points`` for
        0..v-1: ``cols`` holds their distances to each placed point, ``far``
        the largest of those and ``width`` the placed diameter.

        A point whose ``far`` reaches the incumbent is dropped for the whole
        subtree: ``far`` only grows as vertices are added.
        """
        nonlocal best_width, best_points
        if v == g.n - 1:
            # the argmin over all allowed points is the argmin over those
            # with far below the incumbent whenever it can improve on it
            reach = np.maximum(far, width)
            reach[~allowed(v, xs, ys, cols, on_axis)] = np.inf
            i = int(np.argmin(reach))
            if reach[i] < best_width - eps:
                best_width = float(reach[i])
                best_points = points + [(xs[i], ys[i])]
            return
        keep = far < best_width - eps
        xs, ys, far = xs[keep], ys[keep], far[keep]
        cols = [c[keep] for c in cols]
        cand = np.nonzero(allowed(v, xs, ys, cols, on_axis))[0]
        reach = np.maximum(far[cand], width)
        for ci in np.argsort(reach, kind="stable"):
            if reach[ci] >= best_width - eps:
                break
            q = (xs[cand[ci]], ys[cand[ci]])
            col = lengths(xs, ys, q)
            place(v + 1, points + [q], xs, ys, cols + [col],
                  np.maximum(far, col), float(reach[ci]),
                  on_axis and q[1] == 0.0)

    col0 = lengths(xs, ys, (0.0, 0.0))
    place(1, [(0.0, 0.0)], xs, ys, [col0], col0, 0.0, True)
    if best_points is None:
        raise InternalConsistencyError("oracle found no feasible grid placement")
    return best_width, Realization(best_points, L2)
