import math

import numpy as np
import pytest

from rcm_lab.geometry import (Region, _disk_cross_batch, _disk_overlap_batch,
                              clipped_lens_difference_area,
                              lens_difference_area, lens_difference_derivative,
                              toroidal_distance)

from _oracles import lens_area_mc, torus_distance_reference


def test_region_validation():
    with pytest.raises(ValueError):
        Region("disk", 1.0)
    with pytest.raises(ValueError):
        Region("square", 0.0)
    with pytest.raises(ValueError):
        Region("square", math.inf)
    assert Region("torus", 2.0).area == 4.0


def test_region_contains():
    reg = Region("square", 2.0)
    assert reg.contains((0.0, 0.0))
    assert reg.contains((1.0, -1.0))  # boundary included
    assert not reg.contains((1.0001, 0.0))
    flags = reg.contains(np.array([[0.0, 0.0], [3.0, 0.0]]))
    assert list(flags) == [True, False]


def test_region_contains_array_shapes():
    # any (n, 2) array gives a bool array of length n, also n = 1 and 0
    reg = Region("torus", 2.0)
    one = reg.contains(np.array([[0.5, 0.5]]))
    assert isinstance(one, np.ndarray) and one.dtype == bool
    assert one.shape == (1,) and one.all()
    none = reg.contains(np.empty((0, 2)))
    assert none.shape == (0,) and none.dtype == bool and none.all()
    assert type(reg.contains(np.array([3.0, 0.0]))) is bool


def test_euclidean_distance():
    assert Region("square", 10.0).distance((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_toroidal_distance_matches_reference():
    rng = np.random.default_rng(11)
    side = 3.0
    for _ in range(200):
        p = rng.uniform(-side / 2, side / 2, 2)
        q = rng.uniform(-side / 2, side / 2, 2)
        want = torus_distance_reference(p, q, side)
        got = toroidal_distance(p, q, side)
        assert abs(got - want) < 1e-12


def test_toroidal_never_exceeds_euclidean():
    rng = np.random.default_rng(12)
    side = 5.0
    p = rng.uniform(-side / 2, side / 2, (300, 2))
    q = rng.uniform(-side / 2, side / 2, (300, 2))
    dt = toroidal_distance(p, q, side)
    de = Region("square", side).distance(p, q)
    assert np.all(dt <= de + 1e-12)
    assert np.all(dt <= side * math.sqrt(2.0) / 2.0 + 1e-12)


def test_region_distance_dispatch():
    p, q = (0.9, 0.0), (-0.9, 0.0)
    assert Region("square", 2.0).distance(p, q) == pytest.approx(1.8)
    assert Region("torus", 2.0).distance(p, q) == pytest.approx(0.2)


def test_lens_area_endpoints():
    assert lens_difference_area(0.0, 1.0) == 0.0
    assert lens_difference_area(2.0, 1.0) == pytest.approx(math.pi)
    assert lens_difference_area(7.5, 1.0) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        lens_difference_area(-0.1, 1.0)
    with pytest.raises(ValueError):
        lens_difference_area(0.5, 0.0)


def test_lens_area_unit_value():
    # Frozen reference for z = r = 1: pi/3 + sqrt(3)/2, cross-checked by
    # hit-counting MC below.
    want = math.pi / 3.0 + math.sqrt(3.0) / 2.0
    assert want == pytest.approx(1.9132229549810362, abs=1e-15)
    assert lens_difference_area(1.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_lens_area_against_mc():
    for z, r, seed in ((1.0, 1.0, 3), (0.4, 1.3, 4), (1.9, 1.0, 5)):
        mc = lens_area_mc(z, r, 2_000_000, seed)
        se = math.pi * r * r / math.sqrt(2e6)
        assert abs(lens_difference_area(z, r) - mc) < 5.0 * se


def test_lens_area_monotone_and_bounded():
    rng = np.random.default_rng(21)
    z = np.sort(rng.uniform(0.0, 2.0, 500))
    vals = lens_difference_area(z, 1.0)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= math.pi + 1e-12)


def test_lens_lower_bound_sqrt3rz():
    rng = np.random.default_rng(22)
    r = rng.uniform(0.1, 3.0, 1000)
    z = r * rng.uniform(0.0, 1.0, 1000)  # z <= r
    vals = np.array([lens_difference_area(zi, ri) for zi, ri in zip(z, r)])
    assert np.all(vals >= math.sqrt(3.0) * r * z - 1e-12)


def test_lens_derivative_matches_finite_difference():
    rng = np.random.default_rng(23)
    for _ in range(200):
        r = rng.uniform(0.2, 2.0)
        z = rng.uniform(0.05, 0.95) * r
        h = 1e-5 * r
        fd = (lens_difference_area(z + h, r)
              - lens_difference_area(z - h, r)) / (2.0 * h)
        dv = lens_difference_derivative(z, r)
        assert abs(dv - fd) < 1e-6 * max(abs(dv), 1.0)
    assert lens_difference_derivative(2.0, 1.0) == 0.0
    assert lens_difference_derivative(0.0, 1.0) == pytest.approx(2.0)


def test_clipped_lens_requires_square():
    with pytest.raises(ValueError):
        clipped_lens_difference_area((0, 0), (1, 0), 1.0, Region("torus", 4.0))


_BAD_LENS = [(math.nan, 1.0, "z"), (1.0, math.nan, "r"), (-1.0, 1.0, "z"),
             (1.0, 0.0, "r"), (np.array([0.5, math.nan]), 1.0, "z")]


@pytest.mark.parametrize("z, r, name", _BAD_LENS)
def test_lens_difference_area_rejects_bad_input(z, r, name):
    # NaN fails the checks too, and the error names the parameter
    with pytest.raises(ValueError, match=name + " must"):
        lens_difference_area(z, r)


@pytest.mark.parametrize("z, r, name", _BAD_LENS)
def test_lens_difference_derivative_rejects_bad_input(z, r, name):
    with pytest.raises(ValueError, match=name + " must"):
        lens_difference_derivative(z, r)


@pytest.mark.parametrize("r", [-1.0, 0.0, math.nan])
def test_clipped_lens_rejects_bad_radius(r):
    with pytest.raises(ValueError, match="r must"):
        clipped_lens_difference_area((0.0, 0.0), (0.5, 0.0), r,
                                     Region("square", 4.0))


def test_clipped_lens_equals_unclipped_when_interior():
    reg = Region("square", 50.0)
    rng = np.random.default_rng(31)
    for _ in range(20):
        r = rng.uniform(0.3, 2.0)
        x1 = rng.uniform(-3, 3, 2)
        z = rng.uniform(0.0, 2.0 * r)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        x2 = x1 + z * np.array([math.cos(ang), math.sin(ang)])
        got = clipped_lens_difference_area(x1, x2, r, reg)
        assert got == pytest.approx(lens_difference_area(z, r), abs=1e-7)


def test_clipped_lens_never_exceeds_unclipped():
    rng = np.random.default_rng(32)
    reg = Region("square", 4.0)
    for _ in range(1000):
        r = rng.uniform(0.2, 2.5)
        x1 = rng.uniform(-2, 2, 2)
        x2 = rng.uniform(-2, 2, 2)
        z = float(np.hypot(*(x1 - x2)))
        clipped = clipped_lens_difference_area(x1, x2, r, reg)
        assert clipped <= lens_difference_area(z, r) + 1e-8
        assert clipped >= -1e-12


def test_clipped_lens_far_second_center():
    # second disk fully outside the first: clipped area is just the
    # clipped first disk
    reg = Region("square", 10.0)
    got = clipped_lens_difference_area((0.0, 0.0), (100.0, 0.0), 1.0, reg)
    assert got == pytest.approx(math.pi, rel=1e-9)


def test_clipped_lens_accepts_point_arrays():
    reg = Region("square", 4.0)
    rng = np.random.default_rng(33)
    x1 = rng.uniform(-2, 2, (50, 2))
    x2 = rng.uniform(-2, 2, (50, 2))
    got = clipped_lens_difference_area(x1, x2, 0.9, reg)
    assert got.shape == (50,)
    for p, q, v in zip(x1, x2, got):
        assert clipped_lens_difference_area(p, q, 0.9, reg) == v
    one = clipped_lens_difference_area(x1[0], x2, 0.9, reg)
    assert one.shape == (50,) and one[0] == got[0]


def _pair_area_quad(p, q, r, h):
    """|D(p, r) & D(q, r) & [-h, h]^2| by scipy.integrate.quad of the slice
    width, panel by panel between the heights where the circles meet each
    other or a wall; y = a + (b - a)(1 - cos t)/2 removes the square-root
    ends of each panel."""
    from scipy.integrate import quad

    ylo, yhi = max(-h, p[1] - r, q[1] - r), min(h, p[1] + r, q[1] + r)
    if yhi <= ylo:
        return 0.0

    def width(y):
        s1 = math.sqrt(max(r * r - (y - p[1]) ** 2, 0.0))
        s2 = math.sqrt(max(r * r - (y - q[1]) ** 2, 0.0))
        return max(min(p[0] + s1, q[0] + s2, h)
                   - max(p[0] - s1, q[0] - s2, -h), 0.0)

    cuts = []
    for c in (p, q):
        for wall in (-h, h):
            off = r * r - (wall - c[0]) ** 2
            if off >= 0.0:
                cuts += [c[1] - math.sqrt(off), c[1] + math.sqrt(off)]
    z = math.hypot(q[0] - p[0], q[1] - p[1])
    if 0.0 < z <= 2.0 * r:
        half = math.sqrt(r * r - 0.25 * z * z) * (q[0] - p[0]) / z
        cuts += [0.5 * (p[1] + q[1]) - half, 0.5 * (p[1] + q[1]) + half]
    edges = [ylo] + sorted(c for c in set(cuts) if ylo < c < yhi) + [yhi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += quad(lambda t: width(a + 0.5 * (b - a) * (1.0 - math.cos(t)))
                      * 0.5 * (b - a) * math.sin(t), 0.0, math.pi,
                      epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    return total


def _pair_cases(h, r):
    rng = np.random.default_rng(41)
    # interior pairs
    x1 = [rng.uniform(-h + r, h - r, 2) for _ in range(30)]
    x2 = [p + rng.normal(scale=0.7 * r, size=2) for p in x1]
    # near walls and corners: both disks cut by a wall or two
    for _ in range(40):
        p = (h - rng.uniform(0.05, 1.2 * r, 2)) * rng.choice([-1.0, 1.0], 2)
        x1.append(p)
        x2.append(np.clip(p + rng.normal(scale=0.7 * r, size=2), -h, h))
    # centres exactly on a wall and on a corner
    x1 += [np.array(c) for c in ((h, 0.3), (h, h), (-h, -h), (0.2, -h),
                                 (h, h), (h, -h + 0.5), (-h, 0.0))]
    x2 += [np.array(c) for c in ((h - 0.5, 0.9), (h - 0.3, h - 1.2),
                                 (-h + 1.0, -h), (0.2, -h + 0.7), (h, h),
                                 (h, -h), (-h, 1.1))]
    return np.array(x1), np.array(x2)


def test_disk_cross_batch_matches_quad():
    h, r = 4.43, 1.0
    x1, x2 = _pair_cases(h, r)
    got = _disk_cross_batch(x1, x2, r, h)
    assert got.shape == (x1.shape[0],)
    for p, q, v in zip(x1, x2, got):
        assert v == pytest.approx(_pair_area_quad(p, q, r, h), abs=1e-12)


def test_disk_cross_batch_coincident_is_one_disk():
    h, r = 4.43, 1.0
    rng = np.random.default_rng(42)
    pts = np.vstack([rng.uniform(-h, h, (200, 2)),
                     (h - rng.uniform(0.0, 1.2, (200, 2)))
                     * rng.choice([-1.0, 1.0], (200, 2)),
                     [(h, h), (-h, 0.0), (0.0, h), (h - 0.5, -h + 0.5)]])
    got = _disk_cross_batch(pts, pts, r, h)
    walls = np.stack([h - pts[:, 0], h + pts[:, 0], h - pts[:, 1],
                      h + pts[:, 1]])
    np.testing.assert_allclose(got, _disk_overlap_batch(walls, r),
                               rtol=0.0, atol=1e-12)


def test_disk_cross_batch_tangent_and_disjoint_are_zero():
    # r = 5/8 and the offsets are dyadic, so |x2 - x1| = 2r holds exactly
    h, r = 4.0, 0.625
    x1 = np.array([(0.0, 0.0), (0.0, 0.0), (1.0, -2.0), (h - 0.5, h - 0.25),
                   (-h, -h), (0.0, 0.0), (-3.0, 1.0), (h, 0.5), (-1.0, 1.0)])
    off = np.array([(1.25, 0.0), (0.0, 1.25), (0.75, 1.0), (-0.75, -1.0),
                    (1.0, 0.75), (1.3, 0.0), (1.0, 1.0), (-0.9, -1.0),
                    (3.0, 0.2)])
    got = _disk_cross_batch(x1, x1 + off, r, h)
    assert np.all(got == 0.0)
    assert np.all(_disk_cross_batch(x1 + off, x1, r, h) == 0.0)


def test_disk_cross_batch_symmetric_and_free_lens():
    h, r = 4.43, 1.0
    x1, x2 = _pair_cases(h, r)
    np.testing.assert_allclose(_disk_cross_batch(x2, x1, r, h),
                               _disk_cross_batch(x1, x2, r, h),
                               rtol=0.0, atol=1e-13)
    # away from every wall the lens is the free closed form
    inner = np.all(np.abs(np.vstack([x1, x2])) <= h - r, axis=1)
    inner = inner[:x1.shape[0]] & inner[x1.shape[0]:]
    z = np.minimum(np.hypot(*(x2 - x1).T), 2.0 * r)
    free = (2.0 * r * r * np.arccos(z / (2.0 * r))
            - 0.5 * z * np.sqrt(4.0 * r * r - z * z))
    assert inner.sum() >= 20
    np.testing.assert_allclose(_disk_cross_batch(x1, x2, r, h)[inner],
                               free[inner], rtol=0.0, atol=1e-12)
    assert _disk_cross_batch(np.empty((0, 2)), np.empty((0, 2)), r,
                             h).shape == (0,)


def _mixed_pairs(h, r, n, rng):
    """n pairs of each kind: interior, near walls and corners, centres on
    the wall and corner lines, coincident, tangent and disjoint."""
    def near_wall(m):
        return (h - rng.uniform(0.0, 1.2 * r, (m, 2))) * rng.choice(
            [-1.0, 1.0], (m, 2))

    def at_angle(m, dist):
        t = rng.uniform(0.0, 2.0 * np.pi, m)
        return dist[:, None] * np.column_stack([np.cos(t), np.sin(t)])

    inner = rng.uniform(-h, h, (n, 2))
    walls = near_wall(n)
    lines = rng.choice([-h, 0.0, h], (n, 2))
    x1 = np.vstack([inner, walls, lines, near_wall(n), inner, walls])
    x2 = np.vstack([inner + rng.normal(scale=0.7 * r, size=(n, 2)),
                    walls + rng.normal(scale=0.7 * r, size=(n, 2)),
                    lines + rng.normal(scale=0.7 * r, size=(n, 2)),
                    x1[3 * n:4 * n],
                    inner + at_angle(n, np.full(n, 2.0 * r)),
                    walls + at_angle(n, 2.0 * r + rng.uniform(0.0, r, n))])
    return x1, x2


@pytest.mark.parametrize("h, r", [(4.43, 1.0), (0.6, 1.0)])
def test_disk_cross_batch_is_blockwise_and_pairwise_identical(monkeypatch, h,
                                                              r):
    # only the live panels of each pair are evaluated, and each pair adds
    # its panels in the same order however the pairs are batched
    x1, x2 = _mixed_pairs(h, r, 250, np.random.default_rng(44))
    got = _disk_cross_batch(x1, x2, r, h)
    alone = np.array([_disk_cross_batch(p, q, r, h)[0]
                      for p, q in zip(x1, x2)])
    assert np.array_equal(got, alone)
    assert np.any(got == 0.0) and np.any(got > 0.0)
    for block in (7, 5000):
        monkeypatch.setattr("rcm_lab.geometry._CROSS_BLOCK", block)
        assert np.array_equal(_disk_cross_batch(x1, x2, r, h), got)


@pytest.mark.parametrize("h", [4.43, 0.6])
def test_disk_cross_batch_is_never_negative(h):
    # the pairs at distance 2r, whose open panels can round a few ulps
    # below zero (ten of them at h = 4.43, one at 0.6), are clamped at 0
    x1, x2 = _mixed_pairs(h, 1.0, 250, np.random.default_rng(44))
    got = _disk_cross_batch(x1, x2, 1.0, h)
    assert np.all(got >= 0.0)


def test_disk_cross_batch_memory_stays_bounded():
    # pairs are measured in fixed blocks, so the peak does not grow with the
    # number of pairs
    import tracemalloc

    h, r = 4.43, 1.0
    rng = np.random.default_rng(43)
    x1 = rng.uniform(-h, h, (20_000, 2))
    x2 = np.clip(x1 + rng.normal(scale=0.7, size=(20_000, 2)), -h, h)
    tracemalloc.start()
    try:
        _disk_cross_batch(x1, x2, r, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
