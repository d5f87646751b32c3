import math

import numpy as np
import pytest

from rcm_lab.connfn import (check_monotonicity, from_callable, lognormal,
                            omega_tail, tabulated, theta_tail, unit_disk)
from rcm_lab.geometry import Region, gap_distance, toroidal_distance
from rcm_lab.models import ModelSpec, derive, realize
from rcm_lab.pairrng import pair_uniform
from rcm_lab.simulate import (_BINS, _TILE, MetricMismatchError, PointSet,
                              _bound_table, _scan_pairs,
                              _squared_gaps, boundary_coupling, build_graph,
                              census, isolated_count, sample_poisson,
                              window_truncation_census)

from _oracles import (bfs_components, pairwise_edges_bruteforce,
                      torus_distance_reference)


def _pts(seed, side=10.0, density=1.2, kind="square"):
    return sample_poisson(Region(kind, side), density, seed)


def test_sample_poisson_reproducible_and_bounded():
    a = _pts(7)
    b = _pts(7)
    assert np.array_equal(a.positions, b.positions)
    assert np.abs(a.positions).max() <= 5.0
    c = _pts(8)
    assert a.n != c.n or not np.array_equal(a.positions, c.positions)


def test_sample_poisson_count_statistics():
    counts = [_pts(s, side=5.0, density=2.0).n for s in range(300)]
    mean = np.mean(counts)
    # Poisson(50): the sample mean over 300 draws stays within ~5 sigma
    assert abs(mean - 50.0) < 5.0 * math.sqrt(50.0 / 300.0)


def test_sample_poisson_expected_count_override():
    region = Region("square", 2.0)
    pts = sample_poisson(region, 1.0, 3, expected_count=400.0)
    assert pts.n > 300  # mean 400, not area*density = 4
    with pytest.raises(ValueError):
        sample_poisson(region, -1.0, 0)


def test_build_graph_matches_bruteforce_euclidean():
    g = lognormal(sigma=1.0, eta=2.0)
    pts = _pts(11, side=6.0, density=2.0)
    graph = build_graph(pts, g, metric="euclidean", mode="exact")
    want = pairwise_edges_bruteforce(
        pts.positions,
        lambda d: float(g(d)),
        lambda i, j: float(pair_uniform(pts.seed, i, j)))
    assert [tuple(e) for e in graph.edges.tolist()] == want


def test_build_graph_matches_bruteforce_toroidal():
    g = unit_disk(1.5)
    pts = _pts(12, side=6.0, density=2.0, kind="torus")
    graph = build_graph(pts, g, metric="toroidal", mode="exact")
    pos = pts.positions
    want = []
    for i in range(pts.n):
        for j in range(i + 1, pts.n):
            d = torus_distance_reference(pos[i], pos[j], 6.0)
            if float(pair_uniform(pts.seed, i, j)) < float(g(d)):
                want.append((i, j))
    assert [tuple(e) for e in graph.edges.tolist()] == want


def test_metric_validation():
    pts = _pts(0)
    with pytest.raises(MetricMismatchError):
        build_graph(pts, unit_disk(1.0), metric="toroidal")
    with pytest.raises(MetricMismatchError):
        build_graph(pts, unit_disk(1.0), metric="manhattan")
    with pytest.raises(ValueError):
        build_graph(pts, unit_disk(1.0), mode="fast")


def test_exact_equals_cells_disk():
    g = unit_disk(1.0)
    for kind, metric in (("square", "euclidean"), ("torus", "toroidal")):
        for seed in range(6):
            pts = _pts(seed, side=12.0, density=2.5, kind=kind)
            ge = build_graph(pts, g, metric=metric, mode="exact")
            gc = build_graph(pts, g, metric=metric, mode="cells")
            assert np.array_equal(ge.edges, gc.edges)


def test_exact_equals_cells_with_long_pairs():
    # g is positive beyond the cutoff of the coarse tail mass, so cells
    # mode must still link the long pairs exactly as the exact build does
    g = lognormal(sigma=1.5, eta=1.0)
    for seed in range(4):
        pts = _pts(seed, side=14.0, density=1.5)
        ge = build_graph(pts, g, mode="exact")
        gc = build_graph(pts, g, mode="cells", tail_mass=0.3)
        assert np.array_equal(ge.edges, gc.edges)
        # sanity: some edges actually reach beyond the coarse cutoff
        d = np.hypot(*(pts.positions[ge.edges[:, 0]]
                       - pts.positions[ge.edges[:, 1]]).T)
        assert (d > 2.0).any()


def _uniform_point_set(n, side, kind, seed):
    pos = (np.random.default_rng(seed).random((n, 2)) - 0.5) * side
    return PointSet(positions=pos, region=Region(kind, side), density=1.0,
                    seed=seed)


def _bruteforce_edges(pts, g):
    # one vectorized draw per pair, looked up by the pair loop
    n = pts.n
    iu, ju = np.triu_indices(n, k=1)
    u = np.zeros((n, n))
    u[iu, ju] = pair_uniform(pts.seed, iu, ju)
    side = pts.region.side
    torus = pts.region.kind == "torus"
    return np.array(pairwise_edges_bruteforce(
        pts.positions, lambda d: float(g(d)), lambda i, j: u[i, j],
        (lambda p, q: torus_distance_reference(p, q, side)) if torus
        else None), dtype=np.int64).reshape(-1, 2)


def _spans_three_tiles_with_partial_last(n):
    rows = _TILE // n
    return n - 1 > 2 * rows and (n - 1) % rows != 0


@pytest.mark.parametrize("mode", ["exact", "cells"])
@pytest.mark.parametrize("kind", ["square", "torus"])
def test_tile_scan_matches_bruteforce(kind, mode):
    # g is positive beyond its coarse tail_mass=0.3 cutoff (2.0), so cells
    # mode scans all pairs as well, and many edges are longer than that
    g = lognormal(sigma=1.5, eta=1.0)
    pts = _uniform_point_set(403, 16.0, kind, seed=31)
    assert _spans_three_tiles_with_partial_last(pts.n)
    metric = "toroidal" if kind == "torus" else "euclidean"
    graph = build_graph(pts, g, metric=metric, mode=mode, tail_mass=0.3)
    want = _bruteforce_edges(pts, g)
    assert graph.edges.dtype == np.int64
    assert np.array_equal(graph.edges, want)
    d = pts.region.distance(pts.positions[want[:, 0]],
                            pts.positions[want[:, 1]])
    assert (d > 2.0).sum() > 20
    if mode == "cells":
        # infinite cutoffs: the pruned scan against the pair-by-pair loop
        for g in (theta_tail(0.5), omega_tail(1.5)):
            graph = build_graph(pts, g, metric=metric, mode="cells")
            assert np.array_equal(graph.edges, _bruteforce_edges(pts, g))


@pytest.mark.parametrize("kind", ["square", "torus"])
def test_pruned_scan_at_bin_edges(kind):
    # integer points on a side-32 square, whose bins are 1/2 (square) or
    # 1/8 (torus) of a unit of d^2 wide: every squared distance is an
    # integer, so it lies exactly on the inner edge of its bin, and so do
    # the jumps of theta_tail at x0 = 3 and x0 = 2
    side = 32
    metric = "toroidal" if kind == "torus" else "euclidean"
    per_d2, _ = _bound_table(theta_tail(0.5), metric, float(side))
    assert per_d2 == (2.0 if kind == "square" else 8.0)
    cells = np.random.default_rng(17).choice(side * side, 300, replace=False)
    pos = np.column_stack(np.divmod(cells, side)) - 0.5 * side
    pts = PointSet(positions=pos.astype(float),
                   region=Region(kind, float(side)), density=1.0, seed=29)
    d = pts.region.distance(pos[:, None, :], pos[None, :, :])
    assert (d == 3.0).sum() > 100 and (d == 2.0).sum() > 100
    for g in (theta_tail(0.5), theta_tail(0.2, x0=2.0, g0=0.7),
              tabulated([1.0, 2.0, 4.0], [0.9, 0.4, 0.02],
                        tail_rule=("power_log", 0.1, 2.0))):
        graph = build_graph(pts, g, metric=metric, mode="cells")
        assert np.array_equal(graph.edges, _bruteforce_edges(pts, g))


_MONOTONE = [
    pytest.param(unit_disk(1.0), id="unit_disk"),
    pytest.param(lognormal(sigma=0.25, eta=4.0), id="lognormal"),
    pytest.param(lognormal(sigma=1.5, eta=1.0), id="lognormal_wide"),
    pytest.param(theta_tail(0.5), id="theta_tail"),
    pytest.param(omega_tail(1.5), id="omega_tail"),
    pytest.param(tabulated([0.5, 1.0, 2.0], [0.8, 0.5, 0.1]),
                 id="tabulated_zero"),
    pytest.param(tabulated([1.0, 2.0, 4.0], [0.9, 0.4, 0.02],
                           tail_rule=("power_log", 0.1, 2.0)),
                 id="tabulated_power_log"),
    pytest.param(theta_tail(0.5).scaled(0.37), id="theta_frame_scaled"),
    # once exp(-x) has decayed, g rises by up to 2e-13 here and there:
    # check_monotonicity allows that (up to 1e-12), so the table's absolute
    # slack must cover it
    pytest.param(from_callable(lambda x: np.exp(-x)
                               + 1e-13 * (1.0 + np.sin(40.0 * x))),
                 id="rises_within_tolerance"),
]


@pytest.mark.parametrize("g", _MONOTONE)
@pytest.mark.parametrize("metric, side", [("euclidean", 9.0),
                                          ("toroidal", 40.0)])
def test_bound_table_bounds_g_in_every_bin(g, metric, side):
    # no pair the table screens out may link: thresholds * 2^-53 >= g(d)
    # at the inner edge of every bin and at random d^2 inside it (or 1,
    # which passes every pair: uniforms lie below 1)
    assert check_monotonicity(g)
    per_d2, thresholds = _bound_table(g, metric, side)
    assert thresholds.shape == (_BINS,) and thresholds.dtype == np.uint64
    assert thresholds.max() <= 2 ** 53
    rng = np.random.default_rng(3)
    k = np.repeat(np.arange(_BINS), 9)
    offset = rng.random(k.size)
    offset[::9] = 0.0
    d = np.sqrt((k + offset) / per_d2)
    assert np.all(thresholds[k] * 2.0 ** -53 >= np.fmin(g._eval(d), 1.0))
    # the same for the pairs of a point set, binned as the scan bins them
    pts = _uniform_point_set(300, side, "torus" if metric == "toroidal"
                             else "square", seed=8)
    x, y = pts.positions[:, 0], pts.positions[:, 1]
    n = pts.n
    d2 = (_squared_gaps(x, 0, n, metric, side, np.empty((n, n)))
          + _squared_gaps(y, 0, n, metric, side, np.empty((n, n))))
    bins = np.minimum((d2 * per_d2).astype(np.intp), _BINS - 1)
    d = gap_distance(x[:, None] - x[None, :], y[:, None] - y[None, :],
                     side if metric == "toroidal" else None)
    assert np.all(thresholds[bins] * 2.0 ** -53
                  >= np.fmin(g._eval(d), 1.0))
    # and the screen prunes: beyond g's head, few pairs stay candidates
    assert thresholds[-1] * 2.0 ** -53 <= 1.001 * g._eval(
        np.sqrt((_BINS - 1) / per_d2)) + 2e-12


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_point_sets(n):
    g = theta_tail(0.5)
    for kind in ("square", "torus"):
        pts = _uniform_point_set(n, 1.0, kind, seed=5)
        metric = "toroidal" if kind == "torus" else "euclidean"
        want = _bruteforce_edges(pts, g)
        scanned = _scan_pairs(pts, g, metric, pts.seed)
        assert scanned.shape == want.shape and scanned.dtype == np.int64
        assert np.array_equal(scanned, want)
        for mode in ("exact", "cells"):
            graph = build_graph(pts, g, metric=metric, mode=mode)
            assert graph.edges.shape == want.shape
            assert np.array_equal(graph.edges, want)
    # two points closer than x0 = 3, where g = 1: the pair always links
    assert want.tolist() == ([[0, 1]] if n == 2 else [])


def test_exact_scan_memory_stays_bounded():
    # the theta-tail torus of the benchmark at rho 2e3: about 2000 nodes
    # and 2e6 pairs, scanned in small row tiles, pruned in cells mode
    import tracemalloc

    d = derive(ModelSpec(model="torus", rho=2e3, b=0.0, g=theta_tail(0.5)))
    pts = sample_poisson(Region("torus", d.side), d.density, 23,
                         expected_count=d.expected_nodes)
    assert 1800 < pts.n < 2200
    for mode in ("exact", "cells"):
        tracemalloc.start()
        try:
            build_graph(pts, theta_tail(0.5), metric="toroidal", mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6, mode


def test_census_against_bfs():
    g = unit_disk(1.2)
    for seed in range(8):
        pts = _pts(seed, side=9.0, density=1.0)
        graph = build_graph(pts, g)
        got = census(graph)
        orders = bfs_components(pts.n, graph.edges.tolist())
        from collections import Counter
        want = Counter(orders)
        assert got.xi == dict(want)
        assert got.W == want.get(1, 0)
        assert got.largest_order == (max(orders) if orders else 0)
        assert sum(k * c for k, c in got.xi.items()) == pts.n
        assert isolated_count(graph) == got.W


def test_census_empty_graph():
    pts = PointSet(positions=np.empty((0, 2)), region=Region("square", 1.0),
                   density=0.0, seed=0)
    graph = build_graph(pts, unit_disk(1.0))
    c = census(graph)
    assert c.W == 0 and c.xi == {} and c.largest_order == 0


def test_boundary_coupling_identity_and_subset():
    spec = ModelSpec(model="torus", rho=200.0, b=0.0, g=unit_disk(1.0),
                     C=math.pi)
    for seed in range(30):
        tg = realize(spec, seed)
        sq, w_t, w_e, w = boundary_coupling(tg)
        assert w == w_t + w_e and w_e >= 0
        assert w_t == isolated_count(tg)
        assert w == isolated_count(sq)
        torus_set = {tuple(e) for e in tg.edges.tolist()}
        assert {tuple(e) for e in sq.edges.tolist()} <= torus_set


def test_boundary_coupling_is_square_law_for_disk():
    # with an indicator connection the kept-edge rule degenerates to the
    # plain euclidean-distance test, so the coupled graph must coincide
    # with a direct square-frame draw at the same seed
    for seed in range(20):
        torus = realize(ModelSpec(model="torus", rho=150.0, b=0.0,
                                  g=unit_disk(1.0), C=math.pi), seed)
        square = realize(ModelSpec(model="square", rho=150.0, b=0.0,
                                   g=unit_disk(1.0), C=math.pi), seed)
        sq, _, _, _ = boundary_coupling(torus)
        assert np.array_equal(sq.points.positions, square.points.positions)
        assert np.array_equal(sq.edges, square.edges)


@pytest.mark.parametrize("g, C", [
    pytest.param(unit_disk(1.0), math.pi, id="unit_disk"),
    pytest.param(lognormal(sigma=0.25, eta=4.0), None, id="lognormal"),
])
def test_boundary_coupling_matches_all_edge_thinning(g, C):
    # the reference decides every torus edge by v < g(d_e) / g(d_t); the
    # library decides only the wrap-around ones and must keep the same set
    from rcm_lab.pairrng import STREAM_COUPLING

    spec = ModelSpec(model="torus", rho=200.0, b=0.0, g=g, C=C)
    removed = 0
    for seed in range(6):
        tg = realize(spec, seed)
        pos, side, edges = tg.points.positions, tg.points.region.side, tg.edges
        ii, jj = edges[:, 0], edges[:, 1]
        d_e = np.hypot(*(pos[ii] - pos[jj]).T)
        d_t = toroidal_distance(pos[ii], pos[jj], side)
        v = pair_uniform(tg.points.seed, ii, jj, stream=STREAM_COUPLING)
        keep = v < tg.g._eval(d_e) / tg.g._eval(d_t)
        sq, _, _, _ = boundary_coupling(tg)
        assert np.array_equal(sq.edges, edges[keep])
        removed += int(np.count_nonzero(~keep))
    assert removed > 0


def test_cutoff_cache_never_serves_a_collected_g():
    # a custom g's signature holds id(fn); ids come back after collection,
    # so a new g must not find the cutoff of an old one
    from rcm_lab.connfn import _solve_cutoff, effective_cutoff, from_callable

    for r in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5):
        g = from_callable(lambda x, r=r: np.exp(-(x / r) ** 2))
        assert effective_cutoff(g, 1e-6) == _solve_cutoff(g, 1e-6)
        del g


def test_cells_mode_rejects_increasing_g():
    # cells mode is exact only for a g that is non-increasing beyond its
    # cutoff; exact mode takes any g
    from rcm_lab.connfn import from_callable

    def bump(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 2.0) & (x < 3.0), 0.9, np.exp(-x))

    bump = from_callable(bump)
    pts = _pts(1)
    with pytest.raises(ValueError, match="non-increasing"):
        build_graph(pts, bump, mode="cells")
    assert build_graph(pts, bump, mode="exact").edges.shape[1] == 2


def test_cells_mode_rejects_callable_that_passes_the_sampled_check():
    # exp(-x) but 0.9 on (5, 5.004): the rise falls between two points of
    # check_monotonicity's grid, and a pruned scan that trusted the check
    # kept 12 369 of these 12 564 edges.  Only g's kind vouches for cells
    # mode.
    def rise(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 5.0) & (x < 5.004), 0.9, np.exp(-x))

    g = from_callable(rise)
    assert check_monotonicity(g)
    pts = _pts(4, side=30.0, density=2.0, kind="torus")
    with pytest.raises(ValueError, match="non-increasing"):
        build_graph(pts, g, metric="toroidal", mode="cells")
    exact = build_graph(pts, g, metric="toroidal", mode="exact")
    assert exact.edges.shape == (12564, 2)


def test_boundary_coupling_needs_torus():
    graph = build_graph(_pts(1), unit_disk(1.0))
    with pytest.raises(MetricMismatchError):
        boundary_coupling(graph)


def test_window_truncation_census():
    spec = ModelSpec(model="window", rho=300.0, b=0.0, g=unit_disk(1.0),
                     C=math.pi)
    d = derive(spec)
    for seed in range(15):
        graph = realize(spec, seed)
        w_trunc, w_pad = window_truncation_census(graph, d.core_side)
        assert 0 <= w_pad <= w_trunc
        h = 0.5 * d.core_side
        n_core = int(np.sum(np.all(np.abs(graph.points.positions) <= h,
                                   axis=1)))
        assert w_trunc <= n_core
    with pytest.raises(ValueError):
        window_truncation_census(graph, 0.0)
    with pytest.raises(ValueError):
        window_truncation_census(graph, graph.points.region.side * 2.0)


def test_connectivity_via_census_matches_bfs():
    rng = np.random.default_rng(5)
    hits = [0, 0]
    for _ in range(40):
        n = int(rng.integers(2, 25))
        pos = rng.random((n, 2)) * 3.0 - 1.5
        r = float(rng.uniform(0.4, 1.4))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if math.hypot(*(pos[i] - pos[j])) <= r]
        want = (max(bfs_components(n, edges)) == n)
        pts = PointSet(positions=pos, region=Region("square", 3.0),
                       density=1.0, seed=0)
        got = census(build_graph(pts, unit_disk(r))).largest_order == n
        assert got == want
        hits[int(want)] += 1
    assert min(hits) > 3  # both outcomes exercised


def test_connectivity_via_census_trivial_cases():
    for n in (0, 1):
        pts = PointSet(positions=np.zeros((n, 2)),
                       region=Region("square", 1.0), density=1.0, seed=0)
        c = census(build_graph(pts, unit_disk(1.0)))
        assert c.largest_order == n
        assert c.xi == ({1: 1} if n else {}) and c.W == n


def test_toroidal_distance_helper():
    side = 4.0
    rng = np.random.default_rng(2)
    p = rng.random((50, 2)) * side - side / 2
    q = rng.random((50, 2)) * side - side / 2
    d = toroidal_distance(p, q, side)
    for k in range(50):
        assert d[k] == pytest.approx(
            torus_distance_reference(p[k], q[k], side), abs=1e-12)
