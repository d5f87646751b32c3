"""Property tests for the graph primitives on random point sets.

Coordinates of the constructed pairs lie on a 1/1024 grid and the side and
radius on a 1/8 grid, so their differences are exact in floating point and
a pair placed at distance r0 really sits at distance r0.
"""

import math
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcm_lab.connfn import (ConnectionFunction, effective_cutoff, from_config,
                            lognormal, unit_disk)
from rcm_lab.geometry import (Region, _disk_cross_batch, _disk_overlap_batch,
                              toroidal_distance)
from rcm_lab.simulate import (PointSet, RcmGraph, build_graph, census,
                              isolated_count)

from _oracles import bfs_components, torus_distance_reference

GRID = 1024


@st.composite
def point_sets(draw, kind):
    """(PointSet, r0, index pairs at distance exactly r0 in the metric)."""
    side = draw(st.integers(40, 120)) / 8.0
    h = 0.5 * side
    # side / r0 >= 3 keeps the cells build off its exact-scan fallback.
    r0 = draw(st.integers(4, int(8 * side / 3))) / 8.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = list((rng.random((draw(st.integers(16, 80)), 2)) - 0.5) * side)

    def coord(lo, hi):
        return draw(st.integers(math.ceil(lo * GRID),
                                math.floor(hi * GRID))) / GRID

    for _ in range(draw(st.integers(0, 4))):
        # Within 1e-9 of both sides of the wrap seam, on either axis.
        delta = draw(st.floats(0.0, 1e-9))
        y = coord(-h, h)
        rows += [(-h + delta, y), (h - delta, y), (y, -h + delta),
                 (y, h - delta)]
    exact = []
    for _ in range(draw(st.integers(1, 4))):
        x, y = coord(-h, h - r0), coord(-h, h)
        if draw(st.booleans()):
            x, y = y, x
            step = (0.0, r0)
        else:
            step = (r0, 0.0)
        exact.append((len(rows), len(rows) + 1))
        rows += [(x, y), (x + step[0], y + step[1])]
    if kind == "torus":
        for _ in range(draw(st.integers(1, 4))):
            # Across the seam: r0 - a on one side, a on the other.
            a = coord(0.0, r0)
            y = coord(-h, h)
            exact.append((len(rows), len(rows) + 1))
            rows += [(h - a, y), (-h + (r0 - a), y)]
    pts = PointSet(positions=np.asarray(rows, dtype=float),
                   region=Region(kind, side), density=1.0,
                   seed=draw(st.integers(0, 2**31)))
    return pts, r0, exact


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["square", "torus"]))
def test_exact_equals_cells_disk(data, kind):
    pts, r0, exact = data.draw(point_sets(kind))
    g = unit_disk(r0)
    ge = build_graph(pts, g, mode="exact")
    gc = build_graph(pts, g, mode="cells")
    assert np.array_equal(ge.edges, gc.edges)
    # A hard disk links every pair within r0, boundary included.
    linked = {tuple(e) for e in gc.edges.tolist()}
    assert set(exact) <= linked


@settings(max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["square", "torus"]))
def test_exact_equals_cells_with_long_pairs(data, kind):
    # A coarse tail mass puts the cutoff inside the pair distances, and g
    # is positive beyond it, so cells mode must link the long pairs too;
    # pairs one step of r_cut apart sit on the cutoff.
    g = lognormal(sigma=1.5, eta=1.0)
    pts, _, _ = data.draw(point_sets(kind))
    r_cut = effective_cutoff(g, 0.3)
    h = 0.5 * pts.region.side
    xs = np.linspace(-h, h - r_cut, 5)
    extra = [(x, y) for x in xs for y in (0.0, 0.25 * h)]
    extra += [(x + r_cut, y) for x, y in extra]
    pts = PointSet(positions=np.vstack([pts.positions, extra]),
                   region=pts.region, density=1.0, seed=pts.seed)
    ge = build_graph(pts, g, mode="exact")
    gc = build_graph(pts, g, mode="cells", tail_mass=0.3)
    assert np.array_equal(ge.edges, gc.edges)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 40))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)),
                      st.integers(0, max(n - 1, 0)))
    raw = draw(st.lists(pairs, max_size=60)) if n > 1 else []
    edges = sorted({(min(i, j), max(i, j)) for i, j in raw if i != j})
    pts = PointSet(positions=np.zeros((n, 2)), region=Region("square", 1.0),
                   density=1.0, seed=0)
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    # A hand-built graph may break build_graph's order: each edge once or
    # twice, rows shuffled, some reversed (i > j).
    if arr.size and draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = np.repeat(np.arange(len(arr)), rng.integers(1, 3, len(arr)))
        arr = arr[rng.permutation(rows)]
        swap = rng.random(len(arr)) < 0.5
        arr[swap] = arr[swap, ::-1]
    return RcmGraph(points=pts, edges=arr, g=unit_disk(1.0))


@settings(max_examples=100, deadline=None)
@given(graph=graphs())
def test_census_matches_bfs(graph):
    got = census(graph)
    orders = bfs_components(graph.n, graph.edges.tolist())
    assert got.xi == dict(sorted(Counter(orders).items()))
    assert list(got.xi) == sorted(got.xi)
    assert sum(k * c for k, c in got.xi.items()) == graph.n
    assert got.W == isolated_count(graph) == orders.count(1)
    assert got.largest_order == max(orders, default=0)


@settings(max_examples=200, deadline=None)
@given(side=st.floats(0.5, 100.0),
       u=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4))
def test_toroidal_distance_matches_reference(side, u):
    p = np.array(u[:2]) * side
    q = np.array(u[2:]) * side
    want = torus_distance_reference(p, q, side)
    assert abs(toroidal_distance(p, q, side) - want) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(side=st.integers(8, 160), r=st.integers(1, 64),
       u=st.lists(st.integers(-GRID // 2, GRID // 2), min_size=4,
                  max_size=4))
# both disks cover the whole square, so each area is exactly side^2
@example(side=8, r=57, u=[0, 0, 0, 510])
# a centre one half grid step from a wall puts an arc end at t ~ r, where
# an arcsin form of the arc integral lost ~1e-12 to rounding
@example(side=160, r=59, u=[0, 511, 0, 511])
@example(side=77, r=56, u=[-275, -232, -511, -501])
def test_two_disk_area_within_each_clipped_disk(side, r, u):
    # Grid coordinates put centres on walls and corners, and make tangent
    # or coincident disks exact, often enough to matter.
    side, r = side / 8.0, r / 8.0
    h = 0.5 * side
    pts = np.array(u, dtype=float).reshape(2, 2) / GRID * side
    area = _disk_cross_batch(pts[:1], pts[1:], r, h)[0]
    one = _disk_overlap_batch(np.stack([h - pts[:, 0], h + pts[:, 0],
                                        h - pts[:, 1], h + pts[:, 1]]), r)
    assert 0.0 <= area <= one.min() + 1e-12
    if np.hypot(*(pts[1] - pts[0])) >= 2.0 * r:
        assert area == 0.0


_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-5, 5), st.text(max_size=3), st.none(),
                    st.lists(st.integers(), max_size=2))
_KEYS = st.sampled_from(["r0", "sigma", "eta", "a", "x0", "g0", "p",
                         "radius", "path", "tail"])


@settings(max_examples=200, deadline=None)
@given(family=st.one_of(st.sampled_from(["unit_disk", "lognormal",
                                         "theta_tail", "omega_tail",
                                         "tabulated", "pentagon"]),
                        _VALUES),
       params=st.one_of(st.dictionaries(_KEYS, _VALUES, max_size=4),
                        _VALUES))
def test_from_config_builds_or_raises_value_error(family, params):
    # A tabulated 'path' that names no readable file is an OSError.
    try:
        g = from_config({"family": family, "params": params})
    except (ValueError, OSError):
        return
    assert isinstance(g, ConnectionFunction)
