import math

import numpy as np
import pytest

from rcm_lab.connfn import (InconclusiveTailError, integral_constant,
                            lognormal, omega_tail, theta_tail, unit_disk)
from rcm_lab.models import ModelSpec, derive, realize
from rcm_lab.quadrature import (expected_components_order2,
                                expected_isolated_infinite,
                                expected_isolated_square,
                                expected_isolated_torus, inner_exposure,
                                isolation_report, truncation_limit)
from rcm_lab.quadrature import (_cross_mass_generic, _exposure, _frame,
                                _region_integral)
from rcm_lab.simulate import census

from _oracles import disk_square_overlap, riemann_expected_isolated_disk

PI = math.pi


def _disk_spec(model, rho, b=0.0):
    return ModelSpec(model=model, rho=rho, b=b, g=unit_disk(1.0), C=PI)


def test_inner_exposure_center_and_corner():
    spec = _disk_spec("square", 1000.0)
    d = derive(spec)
    h = d.side / 2
    lam = d.lam
    # deep interior: full disk; at an exact corner: quarter disk
    assert inner_exposure((0.0, 0.0), spec) == pytest.approx(lam * PI,
                                                             rel=1e-10)
    assert inner_exposure((h, h), spec) == pytest.approx(lam * PI / 4,
                                                         rel=1e-8)
    assert inner_exposure((h, 0.0), spec) == pytest.approx(lam * PI / 2,
                                                           rel=1e-8)


def test_inner_exposure_matches_overlap_formula():
    spec = _disk_spec("square", 120.0)
    d = derive(spec)
    h = d.side / 2
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = rng.random(2) * d.side - h
        want = d.lam * disk_square_overlap(p[0], p[1], 1.0, h)
        assert inner_exposure(p, spec) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("g", [
    pytest.param(lognormal(sigma=0.25, eta=4.0), id="lognormal"),
    pytest.param(theta_tail(a=0.5), id="theta_tail"),
])
def test_array_exposure_matches_pointwise(g):
    _, d, gf = _frame(ModelSpec(model="square", rho=100.0, b=0.0, g=g))
    h = 0.5 * d.core_side
    rng = np.random.default_rng(31)
    # interior points, points near the walls and corners, and the exact
    # center, corner and wall midpoint
    pts = np.vstack([rng.random((40, 2)) * 2 * h - h,
                     h - rng.random((20, 2)) * 2.5,
                     [[0.0, 0.0], [h, h], [-h, 0.0]]])
    got = _exposure(pts[:, 0], pts[:, 1], d.core_side, d.density, gf)
    assert got.shape == (pts.shape[0],)
    want = [_exposure(float(x), float(y), d.core_side, d.density, gf)
            for x, y in pts]
    assert got == pytest.approx(want, rel=1e-13)
    # broadcast coordinate arrays keep their shape
    grid = _exposure(pts[:5, 0, None], pts[None, :3, 1], d.core_side,
                     d.density, gf)
    assert grid.shape == (5, 3)
    with pytest.raises(ValueError):
        _exposure(np.array([0.0, 1.01 * h]), 0.0, d.core_side, d.density, gf)


def test_exposure_memory_stays_bounded():
    # points are integrated in fixed blocks, so the peak does not grow with
    # the number of points
    import tracemalloc

    _, d, g = _frame(ModelSpec(model="square", rho=100.0, b=0.0,
                               g=lognormal(sigma=0.25, eta=4.0)))
    h = 0.5 * d.core_side
    pts = np.random.default_rng(32).random((20_000, 2)) * 2 * h - h
    tracemalloc.start()
    try:
        _exposure(pts[:, 0], pts[:, 1], d.core_side, d.density, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _lognormal_ref(sigma=0.25, eta=4.0):
    # lognormal's erfc roll-off, written apart from the library for scipy
    kslope = 10.0 * eta / (sigma * math.sqrt(2.0))

    def gref(r):
        return 0.5 * math.erfc(kslope * math.log10(r)) if r > 0.0 else 1.0

    return gref


def test_cross_mass_generic_matches_dblquad():
    from scipy.integrate import dblquad

    g = lognormal(sigma=0.25, eta=4.0)
    gref = _lognormal_ref()
    # reach 2.0 is this g's cutoff at tail mass 1e-12; the reference
    # integrates over the whole square.  Interior, corner and wall pairs,
    # then one whose reach boxes do not meet:
    h = 4.0
    x1 = np.array([(0.3, -0.2), (3.6, 3.7), (-3.9, 0.5), (-3.5, 0.0)])
    x2 = np.array([(1.1, 0.4), (2.9, 3.1), (-3.2, -0.6), (1.0, 0.2)])
    got = _cross_mass_generic(x1, x2, g, h, 2.0)
    assert got.shape == (4,)
    for p, q, v in zip(x1[:3], x2[:3], got):
        want, _ = dblquad(
            lambda y, x: (gref(math.hypot(x - p[0], y - p[1]))
                          * gref(math.hypot(x - q[0], y - q[1]))),
            -h, h, -h, h, epsabs=1e-11, epsrel=1e-9)
        assert v == pytest.approx(want, rel=1e-7)
    assert got[3] == 0.0
    # one array call gives what single-pair calls give
    for i in range(4):
        one = _cross_mass_generic(x1[i:i + 1], x2[i:i + 1], g, h, 2.0)
        assert one.shape == (1,)
        assert got[i] == pytest.approx(one[0], rel=1e-10, abs=0.0)
    assert _cross_mass_generic(np.empty((0, 2)), np.empty((0, 2)), g, h,
                               2.0).shape == (0,)


def test_cross_mass_memory_stays_bounded():
    # inner integrals run in fixed blocks of outer nodes, so the peak does
    # not grow with the number of pairs
    import tracemalloc

    _, d, g = _frame(ModelSpec(model="square", rho=100.0, b=0.0,
                               g=lognormal(sigma=0.25, eta=4.0)))
    h = 0.5 * d.core_side
    rng = np.random.default_rng(33)
    x1 = rng.random((600, 2)) * 2 * h - h
    x2 = np.clip(x1 + rng.normal(scale=0.6, size=(600, 2)), -h, h)
    tracemalloc.start()
    try:
        _cross_mass_generic(x1, x2, g, h, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("side", [21.33, 60.0])
def test_exposure_matches_dblquad_near_walls(side):
    # a smooth g's fall-off must not hide inside one long radial panel;
    # (1.0097, 0.0195), (0.15, 1.0) and (0.0, 0.85) are wall distances
    # where it once did
    from scipy.integrate import dblquad

    g = lognormal(sigma=0.25, eta=4.0)
    gref = _lognormal_ref()
    h, reach = 0.5 * side, 2.0
    for dx, dy in ((1.0097, 0.0195), (0.15, 1.0), (0.0, 0.85), (0.0, 0.0),
                   (0.05, 0.6), (0.4, h)):
        x, y = h - dx, h - dy
        got = _exposure(x, y, side, 1.0, g)
        want, _ = dblquad(lambda v, u: gref(math.hypot(u - x, v - y)),
                          max(-h, x - reach), min(h, x + reach),
                          max(-h, y - reach), min(h, y + reach),
                          epsabs=1e-13, epsrel=1e-11)
        assert got == pytest.approx(want, rel=1e-8)


def test_lognormal_square_ew_meets_tolerance_at_rho_1e3():
    # 2.3074144134 is the solve at rel_tol 1e-8 (agreeing to 1.7e-11); the
    # default rel_tol 1e-6 must land within it
    spec = ModelSpec(model="square", rho=1000.0, b=0.0,
                     g=lognormal(sigma=0.25, eta=4.0))
    assert expected_isolated_square(spec) == pytest.approx(2.3074144134,
                                                           rel=1e-6)


def test_torus_closed_form_disk():
    # disk on the torus: I = lam*pi = ln(rho) + b everywhere, so
    # EW = rho * exp(-ln rho - b) = exp(-b) exactly
    for rho, b in ((100.0, 0.0), (1000.0, 1.0), (1e6, 0.0)):
        got = expected_isolated_torus(_disk_spec("torus", rho, b))
        assert got == pytest.approx(math.exp(-b), rel=1e-11)


def test_square_ew_against_riemann_oracle():
    got = expected_isolated_square(_disk_spec("square", 1000.0))
    want = riemann_expected_isolated_disk(1000.0, 0.0, cells=2048)
    assert got == pytest.approx(want, rel=2e-4)
    # frozen value from a 4096^2 midpoint evaluation of the same integral
    assert got == pytest.approx(2.3071, abs=2e-3)


@pytest.mark.parametrize("g", [
    # cutoff 2.0 at tail mass 1e-12, well inside the square of side 6.79:
    # the region integral also splits where that cutoff reaches a wall
    pytest.param(lognormal(sigma=0.25, eta=4.0), id="lognormal-cutoff"),
    # infinite cutoff: only g's structural radii split the triangle
    pytest.param(theta_tail(a=0.5), id="theta_tail-triangle"),
])
def test_square_ew_matches_simulation(g):
    spec = ModelSpec(model="square", rho=60.0, b=0.0, g=g)
    ew = expected_isolated_square(spec, rel_tol=1e-5)
    vals = []
    for s in range(4000):
        vals.append(census(realize(spec, seed=50_000 + s)).W)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean - ew) <= 3.0 * se


def test_region_integral_triangle_matches_frozen_ew():
    # 8 triangles against the frozen rho = 1e2 ladder value of acceptance
    # criterion 4, with a second region in the same call
    _, d, g = _frame(_disk_spec("square", 100.0))
    h = 0.5 * d.core_side
    val = _region_integral(d.density, d.core_side, g, [0.0, 0.0], [h, h],
                           lambda x, k: 0.0,
                           lambda x, k: np.where(k == 0, x, h), 1e-6, 1e-8)
    assert val.shape == (2,)
    assert 8.0 * val[0] == pytest.approx(2.2779393402, rel=1e-6)
    # the second region, {0 <= x, y <= h}, is 2 triangles
    assert val[1] == pytest.approx(2.0 * val[0], rel=1e-6)


def test_infinite_limit():
    assert expected_isolated_infinite(0.0) == 1.0
    assert expected_isolated_infinite(2.0) == pytest.approx(math.exp(-2.0))
    with pytest.raises(ValueError):
        expected_isolated_infinite(math.inf)


def test_truncation_limit_classes():
    assert truncation_limit(unit_disk(1.0), 1.0) == pytest.approx(
        math.exp(-1.0))
    a = 0.5
    g = theta_tail(a=a, x0=3.0)
    Cg = integral_constant(g)
    want = math.exp(-0.0 + 4.0 * PI * a / Cg)
    assert truncation_limit(g, 0.0) == pytest.approx(want, rel=1e-6)
    assert truncation_limit(omega_tail(p=1.5, x0=3.0), 0.0) == math.inf
    with pytest.raises(InconclusiveTailError):
        truncation_limit(_wiggly(), 0.0)


def _wiggly():
    # oscillates between tail classes; the diagnostic cannot settle
    from rcm_lab.connfn import from_callable

    def osc(x):
        x = np.maximum(np.asarray(x, dtype=float), 1.5)
        body = (1.0 + 0.8 * np.sin(np.log(x))) / (x * x * np.log(x) ** 2)
        return np.minimum(1.0, body)

    return from_callable(osc)


def test_isolation_report_consistency():
    # margin 1.467 lies inside lognormal's cutoff 2.0, so no piece has a
    # closed form here: only their sum is checked
    logn = ModelSpec(model="square", rho=60.0, b=0.0,
                     g=lognormal(sigma=0.25, eta=4.0))
    rep = isolation_report(logn, rel_tol=1e-3)
    assert rep.EW == pytest.approx(rep.central + rep.side + rep.corner,
                                   rel=1e-3)

    rep = isolation_report(_disk_spec("square", 1000.0), rel_tol=1e-6)
    assert rep.EW == pytest.approx(rep.central + rep.side + rep.corner,
                                   rel=1e-6)
    assert rep.EW_torus == pytest.approx(1.0, rel=1e-9)
    assert rep.EW_infinite == 1.0
    assert rep.ratio == pytest.approx(rep.EW, rel=1e-12)
    assert rep.ratio > 1.0  # boundary excess
    assert rep.margin == pytest.approx(derive(
        _disk_spec("square", 1000.0)).r_rho ** -0.2, rel=1e-12)
    with pytest.raises(ValueError):
        isolation_report(_disk_spec("square", 1000.0), eps=0.3)
    with pytest.raises(ValueError):
        isolation_report(_disk_spec("square", 1000.0), eps=0.0)


@pytest.mark.parametrize("rho", [1e3, 1e5])
def test_decomposition_pieces_match_disk_closed_forms(rho):
    from scipy.integrate import quad

    spec = _disk_spec("square", rho)
    rep = isolation_report(spec, rel_tol=1e-6)
    _, d, _ = _frame(spec)
    side, lam, m = d.core_side, d.density, rep.margin
    assert m > 1.0
    # deeper than r0 = 1 from every wall a node sees the whole disk
    assert rep.central == pytest.approx(
        lam * (side - 2.0 * m) ** 2 * math.exp(-lam * PI), rel=1e-12)

    def seg(t):
        # disk area beyond a wall at distance t
        return math.acos(t) - t * math.sqrt(1.0 - t * t) if t < 1.0 else 0.0

    # a side strip node only sees the wall it is near
    prof, _ = quad(lambda t: math.exp(-lam * (PI - seg(t))), 0.0, m,
                   points=[1.0], epsabs=0.0, epsrel=1e-12, limit=200)
    assert rep.side == pytest.approx(4.0 * (side - 2.0 * m) * lam * prof,
                                     rel=1e-8)


def test_bad_rel_tol_is_rejected():
    spec = _disk_spec("square", 100.0)
    for fn in (expected_isolated_square, expected_isolated_torus,
               isolation_report):
        for bad in (0.0, -1.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="rel_tol"):
                fn(spec, rel_tol=bad)


def test_xi2_importance_vs_uniform():
    spec = _disk_spec("square", 60.0)
    ei, si = expected_components_order2(spec, samples=4000, seed=1)
    eu, su = expected_components_order2(spec, samples=60000, seed=2,
                                        mode="uniform")
    assert si > 0.0 and su > 0.0
    assert abs(ei - eu) <= 4.0 * math.hypot(si, su)
    with pytest.raises(ValueError):
        expected_components_order2(spec, samples=10, mode="other")
    for bad in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            expected_components_order2(spec, samples=bad)


def test_xi2_against_simulation():
    spec = _disk_spec("square", 60.0)
    est, se = expected_components_order2(spec, samples=4000, seed=4)
    vals = []
    for s in range(6000):
        vals.append(census(realize(spec, seed=80_000 + s)).xi.get(2, 0))
    mean = float(np.mean(vals))
    sem = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean - est) <= 3.5 * math.hypot(se, sem)


def test_xi2_zero_connection():
    # an identically-zero connection forms no pairs at all (guard path);
    # C must be supplied since it cannot be computed from g = 0
    from rcm_lab.connfn import zero_function
    spec = ModelSpec(model="square", rho=50.0, b=0.0, g=zero_function(),
                     C=PI)
    est, se = expected_components_order2(spec, samples=100, seed=0)
    assert est == 0.0 and se == 0.0


def test_xi2_scale_invariance_of_frames():
    # the square frame depends on g only through its shape: shrinking the
    # disk (with C adjusted to match) reproduces the same expectation
    a, sa = expected_components_order2(_disk_spec("square", 50.0),
                                       samples=2000, seed=11)
    tiny = ModelSpec(model="square", rho=50.0, b=0.0, g=unit_disk(1e-3),
                     C=PI * 1e-6)
    b_, sb = expected_components_order2(tiny, samples=2000, seed=11)
    assert b_ == pytest.approx(a, rel=1e-6)


def test_disk_overlap_batch_matches_oracle():
    from rcm_lab.quadrature import _disk_overlap_batch

    h, r = 4.43, 1.0
    rng = np.random.default_rng(21)
    inner = rng.random((300, 2)) * 2 * h - h
    # corner block points force the twice-cut corner pieces
    corner = h - rng.random((300, 2)) * 1.2
    corner *= rng.choice([-1.0, 1.0], size=(300, 2))
    pts = np.vstack([inner, corner])
    got = _disk_overlap_batch(pts, r, h)
    for p, v in zip(pts, got):
        assert v == pytest.approx(
            disk_square_overlap(p[0], p[1], r, h), abs=1e-12)


def test_disk_cross_batch_matches_generic():
    from rcm_lab.quadrature import _cross_mass_generic, _disk_cross_batch

    h, r = 4.43, 1.0
    g = unit_disk(r)
    rng = np.random.default_rng(22)
    x1 = rng.random((6, 2)) * 2 * h - h
    x2 = x1 + rng.normal(scale=0.7, size=(6, 2))  # keep most pairs close
    x2 = np.clip(x2, -h, h)
    got = _disk_cross_batch(x1, x2, r, h)
    want = _cross_mass_generic(x1, x2, g, h, 2.0 * r)
    for v, w in zip(got, want):
        assert v == pytest.approx(w, rel=5e-4, abs=1e-6)
    # disjoint disks share no mass
    far = _disk_cross_batch(np.array([[-h + 0.1, 0.0]]),
                            np.array([[h - 0.1, 0.0]]), r, h)
    assert far[0] == 0.0


def test_xi2_stratified_path_frozen_reference():
    # rho=1000 turns on boundary stratification; 0.915 +/- 0.010 is the
    # pooled mean of >8000 independent simulated trials of the same model
    est, se = expected_components_order2(_disk_spec("square", 1000.0),
                                         samples=40_000, seed=5)
    assert 0.0 < se < 0.02
    assert abs(est - 0.915) <= 3.5 * math.hypot(se, 0.0103)
