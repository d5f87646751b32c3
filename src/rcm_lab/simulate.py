"""Point processes, graph realization, and component counting.

Edge decisions are pure functions of (trial seed, node pair, distance):
a pair (i, j) is linked iff pair_uniform(seed, i, j) < g(d(i, j)).  Both
build modes evaluate that same predicate, so their outputs are identical
bit for bit; the k-d tree of the cells mode only changes which pairs get a
distance computed.

scipy.spatial and scipy.sparse are imported inside the functions that use
them: at module level they would add about 0.2 s to ``import rcm_lab`` for
callers that never build a graph.
"""

import math
from dataclasses import dataclass

import numpy as np

from .connfn import ConnectionFunction, check_monotonicity, effective_cutoff
from .geometry import Region, minimum_image
from .pairrng import STREAM_COUPLING, STREAM_EDGE, pair_uniform

# Pairs per block of the all-pairs scans.  A block's temporaries take
# about 100 bytes per pair, so 2^20 pairs hold them near 100 MB.
_PAIR_CHUNK = 1 << 20


class MetricMismatchError(ValueError):
    """Operation applied to a graph with the wrong metric."""


@dataclass(frozen=True)
class PointSet:
    positions: np.ndarray   # (n, 2) float64, fundamental domain coordinates
    region: Region
    density: float
    seed: int

    @property
    def n(self):
        return int(self.positions.shape[0])


@dataclass(frozen=True)
class RcmGraph:
    points: PointSet
    edges: np.ndarray       # (m, 2) int64, i < j, lexicographically sorted
    metric: str             # "euclidean" or "toroidal"
    g: ConnectionFunction

    @property
    def n(self):
        return self.points.n


@dataclass(frozen=True)
class Census:
    W: int                  # isolated nodes (= xi.get(1, 0))
    xi: dict                # component order -> count
    largest_order: int


def sample_poisson(region, density, seed, expected_count=None):
    """Poisson(density * area) points, uniform over the region.

    The count is drawn from Poisson(expected_count) when that override is
    given (models pass the algebraically exact mean so equal-seed frames
    draw identical counts), and positions are unit-square draws scaled by
    the side so equal-seed frames agree up to the scale factor.
    """
    if density < 0.0:
        raise ValueError("density must be non-negative")
    mu = density * region.area if expected_count is None else float(expected_count)
    rng = np.random.default_rng(int(seed))
    n = int(rng.poisson(mu))
    unit = rng.random((n, 2)) - 0.5
    return PointSet(positions=unit * region.side, region=region,
                    density=density, seed=int(seed))


def _distances(pos, ii, jj, metric, side):
    # Per-coordinate (m,) differences: gathering (m, 2) rows for
    # geometry.toroidal_distance raises the peak memory of a pair block.
    dx = pos[ii, 0] - pos[jj, 0]
    dy = pos[ii, 1] - pos[jj, 1]
    if metric == "toroidal":
        dx = minimum_image(dx, side)
        dy = minimum_image(dy, side)
    return np.hypot(dx, dy)


def _decide(pos, ii, jj, g, metric, side, seed):
    d = _distances(pos, ii, jj, metric, side)
    u = pair_uniform(seed, ii, jj, stream=STREAM_EDGE)
    keep = u < g._eval(d)
    return ii[keep], jj[keep]


def _pair_block(n, k0, k1):
    """Decode linear pair indices k in [k0, k1) to (i, j) with i < j."""
    k = np.arange(k0, k1, dtype=np.int64)
    # i is the largest row with offset(i) <= k, offset(i) = i*n - i(i+1)/2.
    kf = k.astype(np.float64)
    i = np.floor((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * kf)) / 2).astype(np.int64)
    off = i * n - (i * (i + 1)) // 2
    over = off > k
    while np.any(over):
        i[over] -= 1
        off = i * n - (i * (i + 1)) // 2
        over = off > k
    under = (i + 1) * n - ((i + 1) * (i + 2)) // 2 <= k
    while np.any(under):
        i[under] += 1
        off = i * n - (i * (i + 1)) // 2
        under = (i + 1) * n - ((i + 1) * (i + 2)) // 2 <= k
    j = (k - off) + i + 1
    return i, j


def _edges_exact(pts, g, metric, seed):
    pos = pts.positions
    n = pts.n
    side = pts.region.side
    total = n * (n - 1) // 2
    out_i, out_j = [], []
    for k0 in range(0, total, _PAIR_CHUNK):
        ii, jj = _pair_block(n, k0, min(k0 + _PAIR_CHUNK, total))
        ei, ej = _decide(pos, ii, jj, g, metric, side, seed)
        out_i.append(ei)
        out_j.append(ej)
    if not out_i:
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack([np.concatenate(out_i), np.concatenate(out_j)])


# Slack on the k-d tree query radius, per unit of side.  The tree's own
# arithmetic (wrapped coordinates, squared distances) differs from
# _distances by a few ulps of the side, so the tree is asked for slightly
# more than r_cut and the d <= r_cut filter on the program's own distance
# decides every pair.
_QUERY_SLACK = 1e-9


def _near_candidates(pos, side, r_cut, wrap):
    """Unordered pairs (i < j) within r_cut, plus a few just beyond it."""
    from scipy.spatial import cKDTree

    if wrap:
        # cKDTree's periodic box takes coordinates in [0, side); shifted
        # points lie in [0, side], and np.mod folds side onto 0.
        data = np.mod(pos + 0.5 * side, side)
        tree = cKDTree(data, boxsize=side, balanced_tree=False)
    else:
        tree = cKDTree(pos, balanced_tree=False)
    pairs = tree.query_pairs(r_cut + _QUERY_SLACK * side,
                             output_type="ndarray")
    pairs = pairs.astype(np.int64, copy=False)
    return pairs[:, 0], pairs[:, 1]


# Effective cutoffs by (g.signature(), tail_mass), oldest first.  A custom
# g's signature holds id(fn), which CPython reuses once fn is collected, so
# each entry also holds its g: while an entry is cached no other callable
# can take its id.  Bounded, so long runs over many g stay small.  Cells
# mode is exact only for a g that is non-increasing beyond its cutoff, so
# filling an entry first checks that g is non-increasing.
_CUTOFF_CACHE = {}
_CUTOFF_CACHE_SIZE = 64


def _cutoff_cached(g, tail_mass):
    key = (g.signature(), float(tail_mass))
    if key not in _CUTOFF_CACHE:
        if not check_monotonicity(g):
            raise ValueError("cells mode needs a non-increasing g; "
                             "use mode 'exact'")
        if len(_CUTOFF_CACHE) >= _CUTOFF_CACHE_SIZE:
            del _CUTOFF_CACHE[next(iter(_CUTOFF_CACHE))]
        _CUTOFF_CACHE[key] = (g, effective_cutoff(g, tail_mass))
    return _CUTOFF_CACHE[key][1]


def _edges_cells(pts, g, metric, seed, tail_mass):
    pos = pts.positions
    n = pts.n
    side = pts.region.side
    wrap = metric == "toroidal"

    r_cut = _cutoff_cached(g, tail_mass)
    max_dist = side * math.sqrt(2.0) * (0.5 if wrap else 1.0)
    if not math.isfinite(r_cut) or r_cut >= max_dist:
        return _edges_exact(pts, g, metric, seed)
    ncell = int(side / r_cut)
    if ncell < 3 or n < 16:
        return _edges_exact(pts, g, metric, seed)

    ii, jj = _near_candidates(pos, side, r_cut, wrap)
    d = _distances(pos, ii, jj, metric, side)
    near = d <= r_cut
    ii, jj, d = ii[near], jj[near], d[near]
    u = pair_uniform(seed, ii, jj, stream=STREAM_EDGE)
    keep = u < g._eval(d)
    near_edges = [(ii[keep], jj[keep])]

    # Long-range remainder: one edge uniform is drawn for every one of the
    # n(n-1)/2 pairs, so this scan is quadratic in n.  Only pairs whose
    # uniform falls below p_max get a distance; those beyond r_cut take
    # the same edge test as the exact build, so the result matches it pair
    # for pair.  p_max bounds g beyond the cutoff: zero once the support
    # ends, else g at the cutoff itself (g is non-increasing, so that is an
    # upper bound for every far pair).
    if g.support_radius <= r_cut:
        p_max = 0.0
    else:
        p_max = float(g._eval(np.asarray(r_cut, dtype=float)))
    far_edges = []
    if p_max > 0.0:
        total = n * (n - 1) // 2
        for k0 in range(0, total, _PAIR_CHUNK):
            bi, bj = _pair_block(n, k0, min(k0 + _PAIR_CHUNK, total))
            ub = pair_uniform(seed, bi, bj, stream=STREAM_EDGE)
            cand = ub < p_max
            bi, bj, ub = bi[cand], bj[cand], ub[cand]
            if bi.size == 0:
                continue
            db = _distances(pos, bi, bj, metric, side)
            far = db > r_cut
            bi, bj, db, ub = bi[far], bj[far], db[far], ub[far]
            kb = ub < g._eval(db)
            far_edges.append((bi[kb], bj[kb]))

    chunks = near_edges + far_edges
    ei = np.concatenate([c[0] for c in chunks])
    ej = np.concatenate([c[1] for c in chunks])
    return np.column_stack([ei, ej])


def build_graph(points, g, metric="euclidean", mode="exact", tail_mass=1e-6):
    """Realize the random connection graph on a sampled point set.

    mode "exact" visits all pairs; mode "cells" takes the pairs within the
    effective cutoff from a k-d tree and scans the long pairs by their
    uniforms.  Both give the same edge set for the same seed.
    """
    if metric not in ("euclidean", "toroidal"):
        raise MetricMismatchError("metric must be 'euclidean' or 'toroidal'")
    if metric == "toroidal" and points.region.kind != "torus":
        raise MetricMismatchError("toroidal metric needs a torus region")
    if mode not in ("exact", "cells"):
        raise ValueError("mode must be 'exact' or 'cells'")

    if points.n < 2:
        edges = np.empty((0, 2), dtype=np.int64)
    elif mode == "exact":
        edges = _edges_exact(points, g, metric, points.seed)
    else:
        edges = _edges_cells(points, g, metric, points.seed, tail_mass)

    if edges.shape[0] > 1:
        # With i < j < n, the key i*n + j orders pairs lexicographically.
        n = points.n
        i, j = np.divmod(np.sort(edges[:, 0] * n + edges[:, 1]), n)
        edges = np.column_stack([i, j])
    return RcmGraph(points=points, edges=edges, metric=metric, g=g)


def census(graph):
    """Component-order counts from scipy's connected components."""
    n = graph.n
    if n == 0:
        xi = {}
    else:
        from scipy.sparse import coo_array
        from scipy.sparse.csgraph import connected_components

        ii, jj = graph.edges[:, 0], graph.edges[:, 1]
        adj = coo_array((np.ones(ii.size, dtype=np.int8), (ii, jj)),
                        shape=(n, n))
        _, labels = connected_components(adj, directed=False)
        counts = np.bincount(np.bincount(labels))
        xi = {int(k): int(counts[k]) for k in np.flatnonzero(counts)}
    total = sum(k * c for k, c in xi.items())
    if total != n:
        raise RuntimeError("component orders sum to %d, not to the %d nodes"
                           % (total, n))
    return Census(W=xi.get(1, 0), xi=xi, largest_order=max(xi) if xi else 0)


def _degrees(n, edges):
    return np.bincount(edges.ravel(), minlength=n)


def isolated_count(graph):
    """Number of degree-zero nodes (fast path; equals census(graph).W)."""
    return int(np.count_nonzero(_degrees(graph.n, graph.edges) == 0))


def boundary_coupling(torus_graph):
    """Thin a torus realization down to its square-metric law.

    Each torus edge is kept with probability g(d_euclid) / g(d_torus); the
    survivors have exactly the square-graph edge distribution on the same
    points.  Returns (square_graph, W_T, W_E, W) where W_T counts isolated
    nodes before thinning, W after, and W_E = W - W_T >= 0 is the count
    exposed by removing the wrap-around edges.
    """
    if torus_graph.metric != "toroidal":
        raise MetricMismatchError("boundary coupling starts from a torus graph")
    pts = torus_graph.points
    pos = pts.positions
    side = pts.region.side
    g = torus_graph.g
    edges = torus_graph.edges

    # Only wrap-around edges can go: an edge whose coordinate differences
    # need no shift of the side has d_e == d_t exactly, ratio 1, and a
    # uniform in [0, 1) always keeps it.  The others are decided as
    # v < g_e / g_t, with g_t > 0 since the edge exists.
    keep = np.ones(edges.shape[0], dtype=bool)
    dx = pos[edges[:, 0], 0] - pos[edges[:, 1], 0]
    dy = pos[edges[:, 0], 1] - pos[edges[:, 1], 1]
    wrap = np.flatnonzero((np.round(dx / side) != 0)
                          | (np.round(dy / side) != 0))
    if wrap.size:
        ii, jj = edges[wrap, 0], edges[wrap, 1]
        d_e = _distances(pos, ii, jj, "euclidean", side)
        d_t = _distances(pos, ii, jj, "toroidal", side)
        v = pair_uniform(pts.seed, ii, jj, stream=STREAM_COUPLING)
        keep[wrap] = np.atleast_1d(v) < (np.atleast_1d(g._eval(d_e))
                                         / np.atleast_1d(g._eval(d_t)))

    square_pts = PointSet(positions=pos, region=Region("square", side),
                          density=pts.density, seed=pts.seed)
    square_graph = RcmGraph(points=square_pts, edges=edges[keep],
                            metric="euclidean", g=g)
    w_t = isolated_count(torus_graph)
    w = isolated_count(square_graph)
    w_e = w - w_t
    # Thinning only deletes edges, so isolated nodes can only appear.
    if w_e < 0:
        raise RuntimeError("thinning removed %d isolated nodes" % -w_e)
    return square_graph, w_t, w_e, w


def window_truncation_census(window_graph, core_side):
    """Isolation counts for core nodes of a padded realization.

    Returns (W_core_truncated, W_core_with_pad): the first ignores edges to
    pad nodes (what a bare square window would report), the second counts a
    node isolated only if it has no neighbour anywhere in the padded region
    (the plane-like answer).  truncated >= with_pad always.
    """
    if core_side <= 0.0 or core_side > window_graph.points.region.side:
        raise ValueError("core must be positive and fit inside the window")
    pos = window_graph.points.positions
    h = 0.5 * core_side
    in_core = (np.abs(pos[:, 0]) <= h) & (np.abs(pos[:, 1]) <= h)
    n = window_graph.n
    edges = window_graph.edges
    both = in_core[edges[:, 0]] & in_core[edges[:, 1]]
    deg_any = _degrees(n, edges)
    deg_core = _degrees(n, edges[both])
    w_trunc = int(np.sum(in_core & (deg_core == 0)))
    w_pad = int(np.sum(in_core & (deg_any == 0)))
    return w_trunc, w_pad
