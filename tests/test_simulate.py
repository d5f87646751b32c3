import math

import numpy as np
import pytest

from rcm_lab.connfn import (_unit_radius, check_monotonicity,
                            effective_cutoff, from_callable, lognormal,
                            omega_tail, tabulated, theta_tail, unit_disk)
from rcm_lab.experiments import run_trial
from rcm_lab.geometry import Region, gap_distance, toroidal_distance
from rcm_lab.models import ModelSpec, derive, realize
from rcm_lab.pairrng import pair_uniform
from rcm_lab.simulate import (_TILE, MetricMismatchError, PointSet, RcmGraph,
                              _links, _reach, _scan_pairs, boundary_coupling,
                              build_graph, census, isolated_count,
                              sample_poisson, window_truncation_census)

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


@pytest.mark.parametrize("density, count, name", [
    (math.nan, None, "density"), (1.0, math.nan, "expected_count"),
    (1.0, -3.0, "expected_count")])
def test_sample_poisson_rejects_nan_and_negative(density, count, name):
    # the error names the parameter, not numpy's Poisson argument
    with pytest.raises(ValueError, match=name):
        sample_poisson(Region("square", 2.0), density, 0,
                       expected_count=count)


def test_sample_poisson_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative "
                                         "integer, got -3"):
        sample_poisson(Region("square", 2.0), 1.0, -3)


def test_build_graph_matches_bruteforce_euclidean():
    g = lognormal(sigma=1.0, eta=2.0)
    pts = _pts(11, side=6.0, density=2.0)
    graph = build_graph(pts, g, mode="exact")
    want = pairwise_edges_bruteforce(
        pts.positions,
        lambda d: float(g(d)),
        lambda i, j: float(pair_uniform(pts.seed, i, j)))
    assert [tuple(e) for e in graph.edges.tolist()] == want


def test_build_graph_matches_bruteforce_toroidal():
    g = unit_disk(1.5)
    pts = _pts(12, side=6.0, density=2.0, kind="torus")
    graph = build_graph(pts, g, mode="exact")
    pos = pts.positions
    want = []
    for i in range(pts.n):
        for j in range(i + 1, pts.n):
            d = torus_distance_reference(pos[i], pos[j], 6.0)
            if float(pair_uniform(pts.seed, i, j)) < float(g(d)):
                want.append((i, j))
    assert [tuple(e) for e in graph.edges.tolist()] == want


def test_build_graph_reads_the_torus_from_the_region():
    # torus-ness has one source, the region: a torus point set gets
    # minimum-image distances in both modes (plain ones give 783 edges)
    g = unit_disk(1.0)
    pts = sample_poisson(Region("torus", 10.0), 2.0, 4)
    want = _bruteforce_edges(pts, g)
    assert want.shape == (846, 2)
    for mode in ("exact", "cells"):
        assert np.array_equal(build_graph(pts, g, mode=mode).edges, want)


def test_metric_validation():
    pts = _pts(0)
    with pytest.raises(ValueError):
        build_graph(pts, unit_disk(1.0), mode="fast")


def test_exact_equals_cells_disk():
    g = unit_disk(1.0)
    for kind in ("square", "torus"):
        for seed in range(6):
            pts = _pts(seed, side=12.0, density=2.5, kind=kind)
            ge = build_graph(pts, g, mode="exact")
            gc = build_graph(pts, g, mode="cells")
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
    # mode screens the pairs beyond its reach as well, and many edges are
    # longer than that
    g = lognormal(sigma=1.5, eta=1.0)
    pts = _uniform_point_set(403, 16.0, kind, seed=31)
    assert _spans_three_tiles_with_partial_last(pts.n)
    graph = build_graph(pts, g, mode=mode, tail_mass=0.3)
    want = _bruteforce_edges(pts, g)
    assert graph.edges.dtype == np.int64
    assert np.array_equal(graph.edges, want)
    d = pts.region.distance(pts.positions[want[:, 0]],
                            pts.positions[want[:, 1]])
    assert (d > 2.0).sum() > 20
    if mode == "cells":
        # infinite cutoffs: the grid and the far screen against the
        # pair-by-pair loop
        for g in (theta_tail(0.5), omega_tail(1.5)):
            graph = build_graph(pts, g, mode="cells")
            assert np.array_equal(graph.edges, _bruteforce_edges(pts, g))


_LATTICE_G = [theta_tail(0.5), theta_tail(0.2, x0=2.0, g0=0.7),
              tabulated([1.0, 2.0, 4.0], [0.9, 0.4, 0.02],
                        tail_rule=("power_log", 0.1, 2.0))]


@pytest.mark.parametrize("kind", ["square", "torus"])
def test_pruned_scan_at_bin_edges(kind):
    # integer points on a side-32 square: every squared distance is an
    # integer, and the jumps of theta_tail at x0 = 3 and x0 = 2 are hit
    # exactly
    side = 32
    cells = np.random.default_rng(17).choice(side * side, 300, replace=False)
    pos = np.column_stack(np.divmod(cells, side)) - 0.5 * side
    pts = PointSet(positions=pos.astype(float),
                   region=Region(kind, float(side)), density=1.0, seed=29)
    d = pts.region.distance(pos[:, None, :], pos[None, :, :])
    assert (d == 3.0).sum() > 100 and (d == 2.0).sum() > 100
    for g in _LATTICE_G:
        graph = build_graph(pts, g, mode="cells")
        assert np.array_equal(graph.edges, _bruteforce_edges(pts, g))


@pytest.mark.parametrize("kind", ["square", "torus"])
def test_cells_mode_at_exactly_reach(kind):
    # a 5 x 5 lattice of spacing reach: j * reach is exact for |j| <= 2, and
    # so is the difference of neighbours, so 40 pairs per seed lie exactly
    # reach apart, on the border between the grid's near pairs and the far
    # screen's; each must be decided once
    region = Region(kind, 32.0)
    at_reach = 0
    for g in _LATTICE_G:
        reach, below = _reach(g, region, 1e-6)
        assert below > 0 and 3.0 * reach < region.side
        steps = np.arange(-2, 3) * reach
        pos = np.array([(a, b) for a in steps for b in steps])
        d = region.distance(pos[:, None, :], pos[None, :, :])
        assert (d == reach).sum() == 2 * 40
        for seed in range(30):
            pts = PointSet(positions=pos, region=region, density=1.0,
                           seed=seed)
            edges = build_graph(pts, g, mode="cells").edges
            assert np.array_equal(edges,
                                  build_graph(pts, g, mode="exact").edges)
            at_reach += int((d[edges[:, 0], edges[:, 1]] == reach).sum())
    assert at_reach > 20


def test_cells_mode_at_the_torus_seam():
    # (2.5, 0) and (-2, 0) are 0.5 apart across the seam of a side-5 torus,
    # and so are (0, -2.5) and (0, 2): exactly the disk's radius.  (3, 1)
    # lies outside the fundamental domain, 0.4 from (-1.6, 1); the grid
    # folds every coordinate onto the torus, 2.5 + 2.5 onto 0
    rng = np.random.default_rng(41)
    pos = np.vstack([[[2.5, 0.0], [-2.0, 0.0], [0.0, -2.5], [0.0, 2.0],
                      [3.0, 1.0], [-1.6, 1.0]],
                     (rng.random((96, 2)) - 0.5) * 5.0])
    pts = PointSet(positions=pos, region=Region("torus", 5.0), density=1.0,
                   seed=3)
    g = unit_disk(0.5)
    assert toroidal_distance(pos[[0, 2]], pos[[1, 3]], 5.0).tolist() == [
        0.5, 0.5]
    edges = build_graph(pts, g, mode="cells").edges
    assert np.array_equal(edges, build_graph(pts, g, mode="exact").edges)
    assert {(0, 1), (2, 3), (4, 5)} <= set(map(tuple, edges.tolist()))


# g with a unit radius r1 > 0 (unit_disk, lognormal(0.25, 4), theta_tail(0.5)),
# and two without: theta_tail capped at 0.8 and a table that starts at 0.8
_UNIT_RADIUS_G = [
    pytest.param(unit_disk(1.0), id="unit_disk"),
    pytest.param(lognormal(0.25, 4.0), id="lognormal"),
    pytest.param(theta_tail(0.5), id="theta_tail"),
    pytest.param(theta_tail(0.5, g0=0.8), id="theta_tail_g0"),
    pytest.param(tabulated([0.5, 1.0, 2.0], [0.8, 0.5, 0.1]),
                 id="tabulated_below_one"),
]

# g = 1 up to 0.7 (1 - 1e-6), falling to 0 at 0.7: it reads 0 at its own
# support radius, the reach, so r1 lies just inside it
_TO_ZERO = tabulated([0.7 * (1.0 - 1e-6), 0.7], [1.0, 0.0])


@pytest.mark.parametrize("g", _UNIT_RADIUS_G)
def test_unit_radius_bounds(g):
    # g >= 1 up to r1 <= reach; r1 = 0 exactly when g(0) < 1; and g drops
    # below 1 within the search's resolution past an r1 short of reach
    for region in (Region("square", 16.0), Region("torus", 16.0)):
        reach = _reach(g, region, 1e-6)[0]
        r1 = _unit_radius(g, reach)
        assert 0.0 <= r1 <= reach
        if g._eval(np.asarray(0.0)) < 1.0:
            assert r1 == 0.0
            continue
        assert r1 > 0.0 and g._eval(np.linspace(0.0, r1, 4097)).min() >= 1.0
        assert r1 == reach or g._eval(np.asarray(r1 * (1.0 + 2e-5))) < 1.0
    assert _unit_radius(unit_disk(1.3), 1.3) == 1.3
    g = _TO_ZERO
    reach = g.support_radius
    assert _reach(g, Region("square", 16.0), 1e-6)[0] == reach
    assert g._eval(np.asarray(reach)) == 0.0
    assert reach * (1.0 - 2e-5) < _unit_radius(g, reach) < reach


@pytest.mark.parametrize("g", _UNIT_RADIUS_G)
@pytest.mark.parametrize("kind", ["square", "torus"])
def test_cells_equals_exact_around_the_unit_radius(kind, g):
    # pairs inside r1 link from their squared gap; the edge sets still
    # match exact mode's, and some edges lie inside r1 wherever it is
    # positive
    inside = 0
    for seed in range(3):
        pts = _pts(seed, side=16.0, density=1.5, kind=kind)
        edges = build_graph(pts, g, mode="cells").edges
        assert np.array_equal(edges, build_graph(pts, g, mode="exact").edges)
        r1 = _unit_radius(g, _reach(g, pts.region, 1e-6)[0])
        d = pts.region.distance(pts.positions[edges[:, 0]],
                                pts.positions[edges[:, 1]])
        inside += int((d < r1).sum())
    assert (inside > 100) == (g._eval(np.asarray(0.0)) >= 1.0)


def test_cells_equals_exact_for_a_dense_frame_disk():
    # a dense frame builds the square frame's graph, so its cells and exact
    # edge sets both equal the square's exact ones
    for r0, rho in ((1.0, 2e3), (0.1, 500.0)):
        spec = ModelSpec(model="dense", rho=rho, b=0.0, g=unit_disk(r0))
        square = ModelSpec(model="square", rho=rho, b=0.0, g=unit_disk(r0))
        for seed in range(3):
            want = realize(square, seed, mode="exact").edges
            assert want.shape[0] > 500
            for mode in ("exact", "cells"):
                assert np.array_equal(realize(spec, seed, mode=mode).edges,
                                      want)


def _ulps(d, k):
    """d moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        d = np.nextafter(d, math.copysign(math.inf, k))
    return float(d)


@pytest.mark.parametrize("g", [
    pytest.param(unit_disk(1.0), id="unit_disk"),
    pytest.param(_TO_ZERO, id="tabulated_to_zero"),
    pytest.param(lognormal(0.25, 4.0), id="lognormal"),
    pytest.param(theta_tail(0.5), id="theta_tail")])
@pytest.mark.parametrize("kind", ["square", "torus"])
def test_cells_mode_at_the_unit_radius_and_reach(kind, g):
    # pairs 0, 1 and 2 ulps either side of r1, of r1 (1 - 1e-9), where
    # the squared-gap shortcut stops, and of reach, along x and along y
    # from 0, so that each gap is exact; on the torus a third pair per gap
    # sits across the fold, from x = -side/2 to side/2 - gap
    side = 64.0
    region = Region(kind, side)
    reach = _reach(g, region, 1e-6)[0]
    r1 = _unit_radius(g, reach)
    assert 0.0 < r1 <= reach and 3.0 * reach < side
    gaps = [_ulps(d, k) for d in (r1, r1 * (1.0 - 1e-9), reach)
            for k in range(-2, 3)]
    pos = []
    for a, gap in enumerate(gaps):
        t = (a + 0.5) * side / 16 - side / 2
        pos += [(0.0, t), (gap, t), (t, 0.0), (t, gap)]
        if kind == "torus":
            pos += [(-side / 2, t + 1.0), (side / 2 - gap, t + 1.0)]
    pts = PointSet(positions=np.array(pos), region=region, density=1.0,
                   seed=7)
    want = build_graph(pts, g, mode="exact").edges
    assert np.array_equal(build_graph(pts, g, mode="cells").edges, want)
    # a hard disk links no pair more than its reach apart
    if g.kind == "unit_disk":
        d = region.distance(pts.positions[want[:, 0]],
                            pts.positions[want[:, 1]])
        assert d.max() <= reach


def test_cells_mode_with_torus_points_outside_the_domain():
    # torus positions moved by whole sides, up to three either way: their
    # gaps run far past side/2, and every gap longer than that must still
    # be taken to its minimum image
    rng = np.random.default_rng(53)
    side = 12.0
    pos = (rng.random((400, 2)) - 0.5) * side
    moved = pos + side * rng.integers(-3, 4, size=pos.shape)
    assert (np.abs(moved) > side / 2).any(axis=1).mean() > 0.7
    for g in (unit_disk(1.0), lognormal(0.25, 4.0), theta_tail(0.5)):
        for p in (pos, moved):
            pts = PointSet(positions=p, region=Region("torus", side),
                           density=1.0, seed=13)
            want = build_graph(pts, g, mode="exact").edges
            assert want.shape[0] > 400
            assert np.array_equal(build_graph(pts, g, mode="cells").edges,
                                  want)


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
    # once exp(-x) has decayed, g rises by up to 2e-13 here and there:
    # check_monotonicity allows that (up to 1e-12), so the screen's absolute
    # slack must cover it.  The rises stop at x = 50, so g has a finite mass
    # and a cutoff, which the screen's reach is chosen from
    pytest.param(from_callable(lambda x: np.exp(-x)
                               + 1e-13 * (1.0 + np.sin(40.0 * x)) * (x < 50)),
                 id="rises_within_tolerance"),
]


@pytest.mark.parametrize("g", _MONOTONE)
@pytest.mark.parametrize("metric, side", [("euclidean", 9.0),
                                          ("toroidal", 40.0)])
def test_bound_table_bounds_g_in_every_bin(g, metric, side):
    # the far screen's bound is a table of one bin, d > reach: no pair it
    # screens out may link, so below * 2^-53 >= g(d) at random d beyond
    # reach, at the first floats past reach and at g's jumps (below is 2^53
    # at most, which passes every pair: uniforms lie below 1)
    assert check_monotonicity(g)
    region = Region("torus" if metric == "toroidal" else "square", side)
    reach, below = _reach(g, region, 1e-6)
    assert 0.0 < reach < side and 0 <= below <= 2 ** 53
    rng = np.random.default_rng(3)
    jumps = [r for x in g.radii for r in (x, np.nextafter(x, math.inf))]
    d = np.concatenate([reach * 100.0 ** rng.random(4000),
                        [reach * (1.0 + 2.0 ** -52),
                         np.nextafter(reach, math.inf)], jumps])
    d = d[d > reach]
    assert d.size >= 4002
    assert np.all(below * 2.0 ** -53 >= np.fmin(g._eval(d), 1.0))
    # the same for the pairs of a point set, measured as the screen does
    pts = _uniform_point_set(300, side, region.kind, seed=8)
    x, y = pts.positions[:, 0], pts.positions[:, 1]
    d = gap_distance(x[:, None] - x[None, :], y[:, None] - y[None, :],
                     region.period)
    assert np.all(below * 2.0 ** -53 >= np.fmin(g._eval(d[d > reach]), 1.0))
    # and the screen prunes: below is g just inside reach, up to its slack
    assert below * 2.0 ** -53 <= 1.001 * g._eval(
        np.asarray(reach * (1.0 - 1e-9))) + 2e-12


def test_far_screen_only_where_g_reaches_past_the_cutoff():
    # g zero past its finite cutoff: reach is the cutoff, and nothing is
    # screened.  theta_tail's cutoff and support radius are both infinite,
    # so its reach is where g(D) = pi D^2 / area
    for kind in ("square", "torus"):
        region = Region(kind, 40.0)
        for g in (unit_disk(1.0), lognormal(0.25, 4.0)):
            assert _reach(g, region, 1e-6) == (effective_cutoff(g, 1e-6), 0)
        g = theta_tail(0.5)
        assert effective_cutoff(g, 1e-6) == g.support_radius == math.inf
        reach, below = _reach(g, region, 1e-6)
        assert 3.0 < reach < 4.0 and below > 0
        ratio = g._eval(np.asarray(reach)) * region.area / (math.pi * reach**2)
        assert 0.9 <= ratio <= 1.0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_point_sets(n):
    g = theta_tail(0.5)
    for kind in ("square", "torus"):
        pts = _uniform_point_set(n, 1.0, kind, seed=5)
        want = _bruteforce_edges(pts, g)
        scanned = _scan_pairs(pts, g, pts.seed)
        assert scanned.shape == want.shape and scanned.dtype == np.int64
        assert np.array_equal(scanned, want)
        for mode in ("exact", "cells"):
            graph = build_graph(pts, g, mode=mode)
            assert graph.edges.shape == want.shape
            assert np.array_equal(graph.edges, want)
    # two points closer than x0 = 3, where g = 1: the pair always links
    assert want.tolist() == ([[0, 1]] if n == 2 else [])


def test_exact_scan_memory_stays_bounded():
    # the theta-tail torus of the benchmark at rho 2e3: about 2000 nodes
    # and 2e6 pairs, scanned in small row tiles, which cells mode only
    # hashes past its reach
    import tracemalloc

    d = derive(ModelSpec(model="torus", rho=2e3, b=0.0, g=theta_tail(0.5)))
    pts = sample_poisson(Region("torus", d.side), d.density, 23,
                         expected_count=d.expected_nodes)
    assert 1800 < pts.n < 2200
    for mode in ("exact", "cells"):
        tracemalloc.start()
        try:
            build_graph(pts, theta_tail(0.5), mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6, mode


def test_links_draw_only_where_g_is_below_one(monkeypatch):
    # every uniform lies in [0, 1), so g >= 1 links without a draw; a NaN
    # g draws and fails the comparison
    p = np.array([1.0, np.nan, 0.0, 0.5, 1.5, 1.0 - 2.0 ** -53, 0.999])
    i, j = np.arange(7), np.arange(7) + 10
    drawn = []

    def counted(seed, i, j, stream):
        drawn.append(len(i))
        return pair_uniform(seed, i, j, stream=stream)

    monkeypatch.setattr("rcm_lab.simulate.pair_uniform", counted)
    got = _links(9, i, j, p)
    assert drawn == [5]
    assert np.array_equal(got, pair_uniform(9, i, j) < p)
    assert got.tolist()[:3] == [True, False, False] and got[4]


def test_far_screen_draws_no_pair_uniform(monkeypatch):
    # the far screen decides its candidates from the 53 bits it already
    # hashed, so only pairs at most reach apart draw pair_uniform; the
    # edges still match exact mode
    g = theta_tail(0.5)
    d = derive(ModelSpec(model="torus", rho=2e3, b=0.0, g=g))
    pts = sample_poisson(Region("torus", d.side), d.density, 23,
                         expected_count=d.expected_nodes)
    reach, below = _reach(g, pts.region, 1e-6)
    assert below > 0
    drawn = []

    def recorded(seed, i, j, stream):
        drawn.append((i, j))
        return pair_uniform(seed, i, j, stream=stream)

    monkeypatch.setattr("rcm_lab.simulate.pair_uniform", recorded)
    edges = build_graph(pts, g, mode="cells").edges
    i, j = (np.concatenate(k) for k in zip(*drawn))
    x, y = pts.positions[:, 0], pts.positions[:, 1]
    assert i.size and np.all(
        gap_distance(x[i] - x[j], y[i] - y[j], d.side) <= reach)
    monkeypatch.undo()
    far = gap_distance(x[edges[:, 0]] - x[edges[:, 1]],
                       y[edges[:, 0]] - y[edges[:, 1]], d.side) > reach
    assert far.any()
    assert np.array_equal(edges, build_graph(pts, g, mode="exact").edges)


def test_near_pair_memory_stays_bounded():
    # the disk torus of the benchmark at rho 1e5: about 1e5 nodes and 5.7e5
    # near pairs, decided in blocks of _TILE pairs and kept as edge keys;
    # a whole-array pass over the pairs peaked at 46-48 MB in both calls.
    # scipy's graph module is imported first, so only the trial is traced.
    import tracemalloc

    import scipy.sparse.csgraph  # noqa: F401

    spec = ModelSpec(model="torus", rho=1e5, b=0.0,
                     g=unit_disk(1.0)).with_constant()
    d = derive(spec)
    pts = sample_poisson(Region("torus", d.side), d.density, 3,
                         expected_count=d.expected_nodes)
    assert 9.8e4 < pts.n < 1.02e5
    peaks = []
    for build in (lambda: build_graph(pts, spec.g, mode="cells"),
                  lambda: run_trial(spec, 3, mode="cells")):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 25e6 and peaks[1] < 36e6, peaks


# sha256 of cells-mode edges.tobytes() at seed 11, frozen from the k-d tree
# and bound-table builds that the cell grid replaced: a change to either
# part of the grid, or to the pair stream, moves some of them.
_EDGE_DIGESTS = [
    ("torus", 1e4, unit_disk(1.0), 1e-6, 44835,
     "286aa0e0c7c3144d8eb7b6dfce685cc01b31a3d3c1d70b2e2f40500383514a73"),
    ("square", 1e3, lognormal(1.5, 1.0), 0.3, 3068,
     "57961e948d8efe3fbb2e97537aaa2366d828492c32e8334fce29352b27d9a18d"),
    ("torus", 1e3, lognormal(0.25, 4.0), 1e-6, 3248,
     "307b8ac46e744e6f59b7272ad1151810ab962ed4a131647cea6f83ea35efd500"),
    ("torus", 2e3, theta_tail(0.5), 1e-6, 6906,
     "5ebf26ab1273b1e510c94c3a815a08e3b48540728c72a999b6ea062a25f0c6cf"),
    ("window", 1e3, omega_tail(1.5), 1e-6, 2436,
     "8aaebc0aa617830ed2afe7ba57bde7d2a111b9bb274b6018f1d7df33177b81a2"),
    ("dense", 1e3, tabulated([1.0, 2.0, 4.0], [0.9, 0.4, 0.02],
                             tail_rule=("power_log", 0.1, 2.0)), 1e-6, 3033,
     "158f5870f81eaaafcd50642b0f8c543f516395a3f2cef1c5724ab6349ba26d4f"),
]


def test_cells_edges_match_frozen_digests():
    import hashlib

    for model, rho, g, tail_mass, m, digest in _EDGE_DIGESTS:
        edges = realize(ModelSpec(model=model, rho=rho, b=0.0, g=g), 11,
                        mode="cells", tail_mass=tail_mass).edges
        assert edges.shape == (m, 2) and edges.dtype == np.int64
        assert hashlib.sha256(edges.tobytes()).hexdigest() == digest, (
            model, g.name)


def test_cells_build_leaves_scipy_spatial_unloaded():
    # the near pairs come from the package's own cell grid
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rcm_lab

    src = str(Path(rcm_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    code = ("import sys\n"
            "from rcm_lab import ModelSpec, realize, unit_disk\n"
            "spec = ModelSpec(model='torus', rho=1e4, b=0.0, g=unit_disk())\n"
            "graph = realize(spec, 3, mode='cells')\n"
            "print(graph.edges.shape[0] > 0, 'scipy.spatial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("tile", [7, 1 << 22, _TILE])
def test_near_pair_blocks_give_the_same_graphs(monkeypatch, tile):
    # cells-mode edges, the coupled square edges and the census do not
    # depend on the block size, and match the exact scan
    disk = ModelSpec(model="torus", rho=300.0, b=0.0,
                     g=unit_disk(1.0)).with_constant()
    logn = ModelSpec(model="square", rho=300.0, b=0.0,
                     g=lognormal(0.25, 4.0)).with_constant()
    want = [realize(spec, 5, mode="exact") for spec in (disk, logn)]
    want_square = boundary_coupling(want[0])[0]
    monkeypatch.setattr("rcm_lab.simulate._TILE", tile)
    got = [realize(spec, 5, mode="cells") for spec in (disk, logn)]
    got_square = boundary_coupling(got[0])[0]
    for a, b in zip(got + [got_square], want + [want_square]):
        assert a.edges.shape[0] > 300
        assert np.array_equal(a.edges, b.edges)
        assert census(a) == census(b)
    assert got_square.edges.shape[0] < got[0].edges.shape[0]


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
    spec = ModelSpec(model="torus", rho=200.0, b=0.0, g=unit_disk(1.0))
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
                                  g=unit_disk(1.0)), seed)
        square = realize(ModelSpec(model="square", rho=150.0, b=0.0,
                                   g=unit_disk(1.0)), seed)
        sq, _, _, _ = boundary_coupling(torus)
        assert np.array_equal(sq.points.positions, square.points.positions)
        assert np.array_equal(sq.edges, square.edges)


@pytest.mark.parametrize("g", [
    pytest.param(unit_disk(1.0), id="unit_disk"),
    pytest.param(lognormal(sigma=0.25, eta=4.0), id="lognormal"),
])
def test_boundary_coupling_matches_all_edge_thinning(g):
    # the reference decides every torus edge by v < g(d_e) / g(d_t); the
    # library decides only the wrap-around ones and must keep the same set
    from rcm_lab.pairrng import STREAM_COUPLING

    spec = ModelSpec(model="torus", rho=200.0, b=0.0, g=g)
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
        build_graph(pts, g, mode="cells")
    exact = build_graph(pts, g, mode="exact")
    assert exact.edges.shape == (12564, 2)


def test_boundary_coupling_takes_any_integer_edge_layout():
    # int32 and strided edge arrays, as a hand-built graph may hold them,
    # couple to the same int64 edges and counts as their int64 copy
    tg = realize(ModelSpec(model="torus", rho=200.0, b=0.0,
                           g=lognormal(sigma=0.25, eta=4.0)), 2)
    want = boundary_coupling(tg)
    assert want[0].edges.shape[0] < tg.edges.shape[0]
    wide = np.zeros((tg.edges.shape[0], 3), dtype=np.int64)
    wide[:, :2] = tg.edges
    for edges in (tg.edges.astype(np.int32), wide[:, :2],
                  np.asfortranarray(tg.edges)):
        got = boundary_coupling(RcmGraph(points=tg.points, edges=edges,
                                         g=tg.g))
        assert got[0].edges.dtype == np.int64
        assert np.array_equal(got[0].edges, want[0].edges)
        assert got[1:] == want[1:]


def test_boundary_coupling_needs_torus():
    graph = build_graph(_pts(1), unit_disk(1.0))
    with pytest.raises(MetricMismatchError):
        boundary_coupling(graph)


def test_window_truncation_census():
    spec = ModelSpec(model="window", rho=300.0, b=0.0, g=unit_disk(1.0))
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
    with pytest.raises(ValueError):
        window_truncation_census(graph, math.nan)


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
