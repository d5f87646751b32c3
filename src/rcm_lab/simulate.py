"""Point processes, graph realization, and component counting.

Edge decisions are pure functions of (trial seed, node pair, distance):
a pair (i, j) is linked iff pair_uniform(seed, i, j) < g(d(i, j)).  Both
build modes evaluate that same predicate, so their outputs are identical
bit for bit.  Mode "exact" scans every pair in row tiles, the unpruned
reference.  Mode "cells" (any g but a user callable, whose monotonicity
cannot be known) sorts the points into a grid of cells at least `reach`
wide and decides the pairs at most reach apart from neighbouring cells.
A near pair whose squared gap lies inside g's unit radius r1 <= reach
(g >= 1 up to it, so every uniform links) is linked from that squared gap
alone; only the others get a distance and a uniform.  On the torus
min_image runs only on the coordinate gaps longer than side/2, the only
ones it changes.  When g can be positive beyond reach, a hash-only scan
keeps the farther pairs whose random bits fall below one bound on g past
reach, and only those get a distance.  reach is g's cutoff when g is zero
past it, and otherwise the radius where g(D) = pi D^2 / area.

scipy.sparse is imported inside census, the one function that uses it: at
module level it would add about 0.2 s to ``import rcm_lab`` for callers
that never build a graph.
"""

import math
from dataclasses import dataclass

import numpy as np

from .connfn import ConnectionFunction, effective_cutoff
from .geometry import Region, gap_distance, min_image
from .pairrng import (STREAM_COUPLING, STREAM_EDGE, pair_bits, pair_uniform,
                      row_key)

# Pairs per row tile of the all-pairs scans and per block of the boundary
# coupling.  A tile's temporaries take about 64 bytes per pair, so 2^16-pair
# tiles peak near 4 MB traced.  The cell grid's chunks take _TILE / 4 pairs
# (about 60 bytes each) and the far screen's distance blocks _TILE / 16
# (about 200 bytes each, with g and a uniform): larger ones ran no faster
# and raised the peak RSS of a rho 2e3 theta torus trial.
_TILE = 1 << 16


class MetricMismatchError(ValueError):
    """Operation applied to a graph on the wrong kind of region."""


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
    given (models pass the algebraically exact mean, rho for the square
    and torus frames), and positions are unit-square draws times the side.
    """
    if not density >= 0.0:
        raise ValueError("density must be non-negative")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer, got %r"
                         % (seed,))
    mu = density * region.area if expected_count is None else float(expected_count)
    if not mu >= 0.0:
        raise ValueError("expected_count must be non-negative")
    rng = np.random.default_rng(int(seed))
    n = int(rng.poisson(mu))
    unit = rng.random((n, 2)) - 0.5
    return PointSet(positions=unit * region.side, region=region,
                    density=density, seed=int(seed))


def _scan_pairs(pts, g, seed):
    """Edges (i < j) over all pairs, in lexicographic order: exact mode, the
    unpruned reference.

    Each tile is rows [r0, r0 + _TILE // n) against columns [r0, n), at
    most max(_TILE, n) pairs.  Coordinate differences come from contiguous
    slices, so no pair index is decoded and no coordinate gathered; the
    triangle j <= i at the start of each tile is computed and masked out.
    """
    x, y = pts.positions[:, 0], pts.positions[:, 1]
    n = pts.n
    period = pts.region.period
    idx = np.arange(n, dtype=np.int64)
    out_i, out_j = [idx[:0]], [idx[:0]]
    rows = max(1, min(n, _TILE // max(n, 1)))
    for r0 in range(0, n - 1, rows):
        r1 = min(n - 1, r0 + rows)
        i, j = idx[r0:r1, None], idx[None, r0:]
        d = gap_distance(x[r0:r1, None] - x[None, r0:],
                         y[r0:r1, None] - y[None, r0:], period)
        u = pair_uniform(seed, i, j, stream=STREAM_EDGE)
        ti, tj = np.nonzero((j > i) & (u < g._eval(d)))
        out_i.append(ti + r0)
        out_j.append(tj + r0)
    return np.column_stack([np.concatenate(out_i), np.concatenate(out_j)])


def _links(seed, i, j, p, stream=STREAM_EDGE):
    """Which pairs (i, j) pass pair_uniform(seed, i, j, stream) < p.

    Where p >= 1 every uniform in [0, 1) lies below it, so only the other
    pairs draw one; a NaN p fails p >= 1, draws, and fails u < p.
    """
    link = p >= 1.0
    rest = np.flatnonzero(~link)
    if rest.size:
        link[rest] = pair_uniform(seed, i[rest], j[rest],
                                  stream=stream) < p[rest]
    return link


def _reach(g, region, tail_mass):
    """(reach, below) of the cells-mode build, for a non-increasing g.

    The pairs at most reach apart are the near pairs, taken from the cell
    grid; those inside _unit_radius(g, reach) link from their squared gap
    alone, the others are decided from their distance.  When g is zero
    past its finite cutoff for tail_mass, reach is that cutoff and below
    is 0: no pair beyond it can link.  Otherwise reach is where g(D) = pi
    D^2 / area, read off a geometric grid of ratio 2^(1/64), so that the
    far screen keeps about g(reach) of all pairs and the grid hands on
    about pi reach^2 / area of them.  below is then
    ceil(bound * 2^53), with bound >= g(d) for every d > reach: g just
    inside reach, shrunk by 1e-9 against the rounding of distances, plus
    1e-9 relative and 1e-12 absolute slack (a tabulated power_log tail may
    start up to 1e-12 above the last sample).  A pair whose 53 bits reach
    below has u >= bound >= g(d), so it cannot link.
    """
    r_cut = effective_cutoff(g, tail_mass)
    if math.isfinite(r_cut) and not g._eval(
            np.nextafter(r_cut, math.inf)) > 0.0:
        return r_cut, 0
    per_area = math.pi / region.area
    radii = 2.0 ** (np.arange(-40 * 64, 1) / 64.0) / math.sqrt(per_area)
    reach = float(radii[np.argmin(g._eval(radii) > per_area * radii * radii)])
    bound = float(g._eval(np.asarray(reach * (1.0 - 1e-9))))
    bound = bound * (1.0 + 1e-9) + 1e-12
    # NaN screens nothing; no threshold exceeds 2^53, the bits' range
    if not bound < 1.0:
        return reach, 1 << 53
    return reach, math.ceil(max(bound, 0.0) * 2.0 ** 53)


def _unit_radius(g, reach):
    """r1 <= reach with g >= 1 on [0, r1], for a non-increasing g; 0 when
    g(0) < 1.

    g is read at 0, at reach and on a geometric grid of ratio 2^(1/64)
    below it; r1 is the last of these radii before the first where g < 1,
    moved up on 1024 even steps towards that one.  A hard disk's r1 is its
    reach; a g that reads 0 at its own reach has r1 just inside it.  Every
    pair less than r1 apart links, whatever its uniform.
    """
    def units(r):
        # how many of the radii r, in rising order, g >= 1 holds before
        # the first failure
        return int(np.count_nonzero(
            np.logical_and.accumulate(g._eval(r) >= 1.0)))

    r = np.concatenate([[0.0], reach * 2.0 ** (np.arange(-40 * 64, 1) / 64.0)])
    c = units(r)
    if c in (0, r.size):
        return float(r[c - 1]) if c else 0.0
    r = np.linspace(r[c - 1], r[c], 1025)
    return float(r[units(r) - 1])


# The half stencil: a cell's own pairs and its pairs with four of its eight
# neighbours, as (row, column) offsets, so each neighbouring pair of cells
# is visited once.
_STENCIL = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def _near_keys(pts, g, seed, reach, k):
    """Edge keys i*n + j (i < j) of the pairs at most reach apart.

    The points are sorted into a k x k grid of cells at least reach * (1 +
    1e-9) wide: np.mod folds torus coordinates into [0, side], and a cell
    index past the grid is clipped to it.  A pair at most reach apart then
    lies in one cell or in two neighbouring ones (mod k on the torus, k >=
    3), and the half stencil hands it on once.  The pairs are walked in
    chunks of whole cells, about _TILE / 4 pairs each (a chunk's
    temporaries take about 60 bytes per pair), in cell-sorted order.
    On the torus min_image runs only on the coordinate gaps longer than
    side/2: it leaves the others as they are, bit for bit.  The squared
    gaps pass a prefilter with 1e-9 relative slack.  A survivor whose
    squared gap lies below (r1 (1 - 1e-9))^2, with r1 = _unit_radius(g,
    reach), is less than r1 apart by any rounding of its distance, so it
    links for every uniform and is linked with no distance, g or uniform.
    The others get gap_distance's hypot, and those at most reach apart are
    decided by _links.
    """
    n = pts.n
    side = pts.region.side
    period = pts.region.period
    pos = pts.positions
    cell = 0
    for c in (pos[:, 0], pos[:, 1]):
        c = c + 0.5 * side
        if period is not None:
            np.mod(c, side, out=c)
        c *= k / side
        cell = cell * k + np.clip(c, 0, k - 1).astype(np.int64)
    del c
    order = np.argsort(cell)
    counts = np.bincount(cell, minlength=k * k + 1)
    del cell
    start = np.zeros(k * k + 2, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    xs, ys = pos[order, 0], pos[order, 1]

    # each cell's neighbour at every other stencil offset: cyclic on the
    # torus, else the empty cell k * k past the grid's edge
    ids = np.arange(k * k).reshape(k, k)
    ids = (np.pad(ids, 1, mode="wrap") if period is not None
           else np.pad(ids, 1, constant_values=k * k))
    nbrs = [ids[1 + dr:1 + dr + k, 1 + dc:1 + dc + k].ravel()
            for dr, dc in _STENCIL[1:]]
    own = counts[:-1]
    pairs = own * (own - 1) // 2 + own * sum(counts[q] for q in nbrs)
    reached = np.concatenate([[0], np.cumsum(pairs)])
    del ids, own, pairs

    limit = (reach * (1.0 + 1e-9)) ** 2
    inner = (_unit_radius(g, reach) * (1.0 - 1e-9)) ** 2
    # the keys fill one buffer, doubled when full: thousands of small key
    # arrays, one per chunk, left the heap fragmented at rho 1e6
    keys, m = np.empty(0, dtype=np.int64), 0
    c0 = 0
    while c0 < k * k:
        c1 = max(c0 + 1, int(np.searchsorted(
            reached, reached[c0] + _TILE // 4, side="right")) - 1)
        p = np.arange(start[c0], start[c1])
        pc = np.repeat(np.arange(c0, c1), counts[c0:c1])
        # each point's range of partners: later points of its own cell,
        # then every point of each neighbour
        lo = np.concatenate([p + 1] + [start[q[pc]] for q in nbrs])
        cnt = np.concatenate([start[pc + 1]]
                             + [start[q[pc] + 1] for q in nbrs]) - lo
        src = np.repeat(np.tile(p, len(_STENCIL)), cnt)
        dst = (np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
               + np.arange(src.size))
        dx, dy = xs[src] - xs[dst], ys[src] - ys[dst]
        if period is not None:
            for dz in (dx, dy):
                wrap = np.flatnonzero(np.abs(dz) > 0.5 * period)
                dz[wrap] = min_image(dz[wrap], period)
        d2 = dx * dx + dy * dy
        close = np.flatnonzero(d2 <= limit)
        i, j = order[src[close]], order[dst[close]]
        i, j = np.minimum(i, j), np.maximum(i, j)
        link = d2[close] < inner
        rim = np.flatnonzero(~link)
        d = np.hypot(dx[close[rim]], dy[close[rim]])
        near = d <= reach
        rim = rim[near]
        link[rim] = _links(seed, i[rim], j[rim], g._eval(d[near]))
        i, j = i[link], j[link]
        if m + i.size > keys.size:
            grown = np.empty(2 * (m + i.size), dtype=np.int64)
            grown[:m] = keys[:m]
            keys = grown
        keys[m:m + i.size] = i * n + j
        m += i.size
        c0 = c1
    return keys[:m]


def _far_keys(pts, g, seed, reach, below):
    """Edge keys i*n + j (i < j) of the pairs more than reach apart.

    Row tiles as in _scan_pairs, but a tile only hashes: it keeps the pairs
    whose pair_bits fall below `below`, one mix per pair from per-row keys,
    in two buffers reused by every tile, and their uniforms u = bits *
    2^-53, the ones pair_uniform would draw.  Only those candidates get a
    distance, in blocks of _TILE / 16, and the ones more than reach apart
    link where u < g(d): as in _links, p >= 1 links (u < 1) and NaN fails.
    """
    n = pts.n
    idx = np.arange(n, dtype=np.int64)
    rows_key = row_key(seed, idx, stream=STREAM_EDGE)[:, None]
    cols = idx.astype(np.uint64)[None, :]
    rows = max(1, min(n, _TILE // n))
    upper = np.triu(np.ones((rows, rows), dtype=bool), 1)
    bufs = [np.empty(rows * n, dtype=np.uint64) for _ in range(2)]
    out_i, out_j, out_u = [idx[:0]], [idx[:0]], [np.empty(0)]
    for r0 in range(0, n - 1, rows):
        r1 = min(n - 1, r0 + rows)
        shape = (r1 - r0, n - r0)
        views = (buf[:shape[0] * shape[1]].reshape(shape) for buf in bufs)
        bits = pair_bits(rows_key[r0:r1], cols[:, r0:], *views)
        cand = bits < below
        cand[:, :shape[0]] &= upper[:shape[0], :shape[0]]
        flat = np.flatnonzero(cand)
        ti, tj = np.divmod(flat, shape[1])
        out_i.append(ti + r0)
        out_j.append(tj + r0)
        out_u.append(bits.ravel()[flat] * 2.0 ** -53)
    del bufs, bits
    cand_i, cand_j = np.concatenate(out_i), np.concatenate(out_j)
    cand_u = np.concatenate(out_u)
    x, y = pts.positions[:, 0], pts.positions[:, 1]
    block = max(1, _TILE // 16)
    keys = [idx[:0]]
    for lo in range(0, cand_i.size, block):
        i, j = cand_i[lo:lo + block], cand_j[lo:lo + block]
        d = gap_distance(x[i] - x[j], y[i] - y[j], pts.region.period)
        far = np.flatnonzero(d > reach)
        link = far[cand_u[lo + far] < g._eval(d[far])]
        keys.append(i[link] * n + j[link])
    return np.concatenate(keys)


def _edges_cells(pts, g, seed, tail_mass):
    # Both the grid and the far screen are exact only for a non-increasing
    # g, which a sampled check cannot confirm for a callable; every other g
    # is one by construction.
    if g.kind == "custom":
        raise ValueError("cells mode needs a non-increasing g; "
                         "use mode 'exact'")
    reach, below = _reach(g, pts.region, tail_mass)
    # cells at least reach wide, and no more of them than points
    side = pts.region.side
    k = math.isqrt(pts.n)
    if reach * (1.0 + 1e-9) * k > side:
        k = int(side // (reach * (1.0 + 1e-9)))
    if pts.n < 16 or k < 3:
        return _scan_pairs(pts, g, seed)

    # With i < j < n, the keys i*n + j order pairs lexicographically.
    keys = _near_keys(pts, g, seed, reach, k)
    if below:
        keys = np.concatenate([keys, _far_keys(pts, g, seed, reach, below)])
    keys.sort()
    n = pts.n
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    return edges


def build_graph(points, g, mode="exact", tail_mass=1e-6):
    """Realize the random connection graph on a sampled point set.

    Distances wrap when the points' region is a torus.  Mode "exact"
    scans all pairs in row tiles.  Mode "cells" takes the pairs within
    reach from a sorted cell grid, and screens the farther ones by their
    random bits alone when g can link past reach (see _reach).  tail_mass
    only decides whether g counts as zero past its effective cutoff, which
    then is the reach; the edges do not depend on it.  Both modes give the
    same edge set, sorted lexicographically, for the same seed.
    """
    if mode not in ("exact", "cells"):
        raise ValueError("mode must be 'exact' or 'cells'")

    if points.n < 2:
        edges = np.empty((0, 2), dtype=np.int64)
    elif mode == "exact":
        edges = _scan_pairs(points, g, points.seed)
    else:
        edges = _edges_cells(points, g, points.seed, tail_mass)
    return RcmGraph(points=points, edges=edges, g=g)


def census(graph):
    """Component-order counts from scipy's connected components.

    The adjacency goes to csgraph as the CSR arrays it works on (float64
    data, int32 indices and row pointers), built straight from the edges
    when their first column is sorted, as build_graph leaves it; other
    edge arrays are sorted by row first.  Reversed or repeated edges
    change no component.

    directed=False makes csgraph transpose the one-way adjacency.  That
    stays: on a rho 1e5 disk torus graph (1e5 nodes, 5.7e5 edges) the call
    took 19-24 ms, directed=True with connection="weak" (which transposes
    too) the same, and a both-directions CSR built by argsort, with
    connection="strong", 108-117 ms.
    """
    n = graph.n
    if n == 0:
        xi = {}
    else:
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import connected_components

        ii, jj = graph.edges[:, 0], graph.edges[:, 1]
        if np.any(ii[1:] < ii[:-1]):
            order = np.argsort(ii, kind="stable")
            ii, jj = ii[order], jj[order]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(ii, minlength=n), out=indptr[1:])
        adj = csr_array((np.ones(ii.size), jj.astype(np.int32), indptr),
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
    if torus_graph.points.region.kind != "torus":
        raise MetricMismatchError("boundary coupling starts from a torus graph")
    pts = torus_graph.points
    pos = pts.positions
    side = pts.region.side
    g = torus_graph.g
    edges = torus_graph.edges

    # Only wrap-around edges can go: an edge whose coordinate differences
    # need no shift of the side has d_e == d_t exactly, ratio 1, and a
    # uniform in [0, 1) always keeps it.  The others are decided as
    # v < g_e / g_t, with g_t > 0 since the edge exists.  Edges are
    # tested in blocks of _TILE, so no temporary grows with their number.
    keep = np.ones(edges.shape[0], dtype=bool)
    x, y = np.ascontiguousarray(pos[:, 0]), np.ascontiguousarray(pos[:, 1])
    for lo in range(0, edges.shape[0], _TILE):
        i, j = edges[lo:lo + _TILE, 0], edges[lo:lo + _TILE, 1]
        dx, dy = x[i] - x[j], y[i] - y[j]
        wrap = np.flatnonzero((np.round(dx / side) != 0)
                              | (np.round(dy / side) != 0))
        if wrap.size:
            dx, dy = dx[wrap], dy[wrap]
            d_e = gap_distance(dx, dy)
            d_t = gap_distance(dx, dy, side)
            keep[lo + wrap] = _links(pts.seed, i[wrap], j[wrap],
                                     g._eval(d_e) / g._eval(d_t),
                                     stream=STREAM_COUPLING)

    # Each row as one 16-byte field: a boolean selection of a 1-D array
    # builds no index array (8 bytes per kept edge for an (m, 2) array).
    rows = np.ascontiguousarray(edges, dtype=np.int64).view(
        np.dtype((np.void, 16))).reshape(-1)
    square_pts = PointSet(positions=pos, region=Region("square", side),
                          density=pts.density, seed=pts.seed)
    square_graph = RcmGraph(points=square_pts, g=g,
                            edges=rows[keep].view(np.int64).reshape(-1, 2))
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
    if not 0.0 < core_side <= window_graph.points.region.side:
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
