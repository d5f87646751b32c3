"""Point processes, graph realization, and component counting.

Edge decisions are pure functions of (trial seed, node pair, distance):
a pair (i, j) is linked iff pair_uniform(seed, i, j) < g(d(i, j)).  Both
build modes evaluate that same predicate, so their outputs are identical
bit for bit.  Mode "exact" scans every pair in row tiles, the unpruned
reference.  Mode "cells" (a g whose kind makes it non-increasing, so not
a user callable) takes the pairs within the cutoff from a k-d tree when g
is zero beyond it.  Otherwise it runs the same scan pruned: a pair whose
random bits already exceed an upper bound on g at its squared distance
cannot link, so only the remaining candidates are decided by the
predicate.

scipy.spatial and scipy.sparse are imported inside the functions that use
them: at module level they would add about 0.2 s to ``import rcm_lab`` for
callers that never build a graph.
"""

from dataclasses import dataclass

import numpy as np

from .connfn import ConnectionFunction, effective_cutoff
from .geometry import Region, gap_distance
from .pairrng import (STREAM_COUPLING, STREAM_EDGE, pair_bits, pair_uniform,
                      row_key)

# Pairs per row tile of the all-pairs scan.  A tile's temporaries take
# about 64 bytes per pair, so 2^16-pair tiles peak near 4 MB traced.
_TILE = 1 << 16


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


# Bins of squared distance in the bound table of the pruned scan.  The
# table (one uint64 per bin) stays in the L1 cache, and bins this narrow
# keep the candidates within 1.0-1.3 times the edges (under 0.5% of the
# pairs) for theta_tail, omega_tail and lognormal at rho 2e3.
_BINS = 1 << 12


def _bound_table(g, metric, side):
    """(bins per unit of d^2, thresholds) that screen pairs for a
    non-increasing g.

    Bin k covers d^2 in [k, k + 1) * step, uniform over [0, the largest d^2
    of the metric].  Its threshold is ceil(bound * 2^53), with bound at
    least g(d) for every d in the bin: g at the bin's inner radius, shrunk
    by 1e-9 against the rounding of squared distances, plus 1e-9 relative
    and 1e-12 absolute slack (a tabulated power_log tail may start up to
    1e-12 above the last sample).
    A pair whose 53 bits reach the threshold has u >= bound >= g(d), so it
    cannot link.
    """
    step = (2.0 if metric == "euclidean" else 0.5) * side * side / _BINS
    inner = np.sqrt(np.arange(_BINS) * step) * (1.0 - 1e-9)
    bound = g._eval(inner) * (1.0 + 1e-9) + 1e-12
    # NaN screens nothing; no threshold exceeds 2^53, the bits' range
    bound = np.fmin(np.maximum(bound, 0.0), 1.0)
    return 1.0 / step, np.ceil(bound * 2.0 ** 53).astype(np.uint64)


def _scan_pairs(pts, g, metric, seed, prune=False):
    """Edges (i < j) over all pairs, in lexicographic order.

    Each tile is rows [r0, r0 + _TILE // n) against columns [r0, n), at
    most max(_TILE, n) pairs.  Coordinate differences come from contiguous
    slices, so no pair index is decoded and no coordinate gathered; the
    triangle j <= i at the start of each tile is computed and masked out.

    With prune (g non-increasing), a tile first keeps its candidates: the
    pairs whose pair_bits fall below the _bound_table threshold of their
    squared distance, one mix per pair from per-row keys, in three buffers
    reused by every tile.  Only the candidates of all tiles, together, get
    a distance, a g value and a pair_uniform, so they are decided by the
    same predicate as the unpruned scan.
    """
    x, y = pts.positions[:, 0], pts.positions[:, 1]
    n = pts.n
    side = pts.region.side
    period = side if metric == "toroidal" else None
    idx = np.arange(n, dtype=np.int64)
    out_i, out_j = [idx[:0]], [idx[:0]]
    rows = max(1, min(n, _TILE // max(n, 1)))
    if prune:
        per_d2, thresholds = _bound_table(g, metric, side)
        keys = row_key(seed, idx, stream=STREAM_EDGE)[:, None]
        cols = idx.astype(np.uint64)[None, :]
        upper = np.triu(np.ones((rows, rows), dtype=bool), 1)
        bufs = [np.empty(rows * n), np.empty(rows * n),
                np.empty(rows * n, dtype=np.intp)]
    for r0 in range(0, n - 1, rows):
        r1 = min(n - 1, r0 + rows)
        if not prune:
            i, j = idx[r0:r1, None], idx[None, r0:]
            d = gap_distance(x[r0:r1, None] - x[None, r0:],
                             y[r0:r1, None] - y[None, r0:], period)
            u = pair_uniform(seed, i, j, stream=STREAM_EDGE)
            ti, tj = np.nonzero((j > i) & (u < g._eval(d)))
            out_i.append(ti + r0)
            out_j.append(tj + r0)
            continue
        shape = (r1 - r0, n - r0)
        # a holds d^2, then the bits; b dy^2, then the thresholds; k the
        # bins, then the mixing scratch
        a, b, k = (buf[:shape[0] * shape[1]].reshape(shape) for buf in bufs)
        d2 = _squared_gaps(x, r0, r1, metric, side, a)
        d2 += _squared_gaps(y, r0, r1, metric, side, b)
        d2 *= per_d2
        np.copyto(k, d2, casting="unsafe")
        thr = np.take(thresholds, k, mode="clip", out=b.view(np.uint64))
        bits = pair_bits(keys[r0:r1], cols[:, r0:], out=a.view(np.uint64),
                         tmp=k.view(np.uint64))
        cand = bits < thr
        cand[:, :shape[0]] &= upper[:shape[0], :shape[0]]
        ti, tj = np.divmod(np.flatnonzero(cand), shape[1])
        out_i.append(ti + r0)
        out_j.append(tj + r0)
    i, j = np.concatenate(out_i), np.concatenate(out_j)
    if prune:
        d = gap_distance(x[i] - x[j], y[i] - y[j], period)
        keep = pair_uniform(seed, i, j, stream=STREAM_EDGE) < g._eval(d)
        i, j = i[keep], j[keep]
    return np.column_stack([i, j])


def _squared_gaps(c, r0, r1, metric, side, out):
    """Squared differences of coordinate c, rows [r0, r1) against columns
    [r0, n), written to out.  On the torus the gap is side/2 - ||dc| -
    side/2|, the minimum image up to a few ulps of the side: far inside the
    bound table's 1e-9 shrink at its first bin edge, side / 90."""
    dc = np.subtract(c[r0:r1, None], c[None, r0:], out=out)
    if metric == "toroidal":
        h = 0.5 * side
        np.abs(dc, out=dc)
        dc -= h
        np.abs(dc, out=dc)
        np.subtract(h, dc, out=dc)
    dc *= dc
    return dc


# Slack on the k-d tree query radius, per unit of side.  The tree's own
# arithmetic (wrapped coordinates, squared distances) differs from
# gap_distance by a few ulps of the side, so the tree is asked for slightly
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


# Kinds that are non-increasing by construction (tabulated samples are
# checked when the table is built); so is any rescaling of them.
_NON_INCREASING = ("unit_disk", "lognormal", "theta_tail", "omega_tail",
                   "zero", "tabulated")


def _non_increasing(g):
    while g.kind == "scaled":
        g = g.params["base"]
    return g.kind in _NON_INCREASING


def _edges_cells(pts, g, metric, seed, tail_mass):
    pos = pts.positions
    side = pts.region.side
    wrap = metric == "toroidal"

    # The tree only pays when no pair beyond the cutoff can link, that is
    # when g is zero at the cutoff (g is non-increasing).  Otherwise the
    # far pairs need a distance and a uniform each, so the tree's near
    # pairs would be scanned twice; and a cutoff beyond a third of the side
    # leaves the tree little to prune.  Either way: scan all pairs.  Both
    # paths are exact only for a non-increasing g, which a sampled check
    # cannot confirm for a callable: only g's kind can.
    if not _non_increasing(g):
        raise ValueError("cells mode needs a non-increasing g; "
                         "use mode 'exact'")
    r_cut = effective_cutoff(g, tail_mass)
    if (side < 3.0 * r_cut or pts.n < 16 or (
            g.support_radius > r_cut
            and g._eval(np.asarray(r_cut, dtype=float)) > 0.0)):
        return _scan_pairs(pts, g, metric, seed, prune=True)

    ii, jj = _near_candidates(pos, side, r_cut, wrap)
    d = gap_distance(pos[ii, 0] - pos[jj, 0], pos[ii, 1] - pos[jj, 1],
                     side if wrap else None)
    near = d <= r_cut
    ii, jj, d = ii[near], jj[near], d[near]
    u = pair_uniform(seed, ii, jj, stream=STREAM_EDGE)
    keep = u < g._eval(d)
    # With i < j < n, the key i*n + j orders pairs lexicographically.
    i, j = np.divmod(np.sort(ii[keep] * pts.n + jj[keep]), pts.n)
    return np.column_stack([i, j])


def build_graph(points, g, metric="euclidean", mode="exact", tail_mass=1e-6):
    """Realize the random connection graph on a sampled point set.

    mode "exact" scans all pairs in row tiles; mode "cells" takes the
    pairs within the effective cutoff from a k-d tree when g is zero
    beyond it, and otherwise scans all pairs, deciding only those that
    pass a bound-table screen (see _scan_pairs).  Both give the same edge
    set, sorted lexicographically, for the same seed.
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
        edges = _scan_pairs(points, g, metric, points.seed)
    else:
        edges = _edges_cells(points, g, metric, points.seed, tail_mass)
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
        d_e = gap_distance(dx[wrap], dy[wrap])
        d_t = gap_distance(dx[wrap], dy[wrap], side)
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
