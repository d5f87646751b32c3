import math

import numpy as np
import pytest

from rcm_lab.connfn import (InconclusiveTailError, NonConvergentError,
                            from_callable, integral_constant, lognormal,
                            omega_tail, theta_tail, unit_disk)
from rcm_lab.models import ModelSpec, derive, realize
from rcm_lab.quadrature import (expected_components_order2,
                                expected_isolated_infinite,
                                expected_isolated_square,
                                expected_isolated_torus, inner_exposure,
                                isolation_report, truncation_limit)
from rcm_lab.quadrature import (_CROSS_WEIGHT_TOL, _WallIntegrals,
                                _WallTable, _exposure, _exposure_model,
                                _frame, _region_integral, _torus_ew)
from rcm_lab.simulate import census

from _oracles import (disk_square_overlap, polar_exposure,
                      riemann_expected_isolated_disk)

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


def _jump(x):
    # g jumps from 0.9 to 0.6 at r = 1: the jump crosses none of the levels
    # (1/2, 1e-1, ...) whose radii the wall table finds by bisection
    x = np.asarray(x, dtype=float)
    return np.where(x < 1.0, 0.9, 0.6 * np.exp(-2.0 * (x - 1.0) ** 2))


@pytest.mark.parametrize("g", [
    pytest.param(lognormal(sigma=0.25, eta=4.0), id="lognormal"),
    pytest.param(theta_tail(a=0.5), id="theta_tail"),
    pytest.param(from_callable(_jump, discontinuities=(1.0,)), id="jump"),
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
    model = _exposure_model(gf, d.core_side)
    got = _exposure(model, pts[:, 0], pts[:, 1], d.density)
    assert got.shape == (pts.shape[0],)
    want = [_exposure(model, float(x), float(y), d.density) for x, y in pts]
    assert got == pytest.approx(want, rel=1e-13)
    # broadcast coordinate arrays keep their shape
    grid = _exposure(model, pts[:5, 0, None], pts[None, :3, 1], d.density)
    assert grid.shape == (5, 3)
    with pytest.raises(ValueError):
        _exposure(model, np.array([0.0, 1.01 * h]), 0.0, d.density)


def _theta_ref(r):
    return 1.0 if r <= 3.0 else min(1.0, 0.5 / (r * r * math.log(r) ** 2))


@pytest.mark.parametrize("g, gref, jumps", [
    pytest.param(lognormal(sigma=0.25, eta=4.0),
                 lambda r: _lognormal_ref()(r), [], id="lognormal"),
    pytest.param(theta_tail(a=0.5), _theta_ref, [3.0], id="theta_tail"),
    pytest.param(theta_tail(a=0.5).scaled(0.3).scaled(2.0),
                 lambda r: _theta_ref(r / 0.6), [1.8], id="theta_scaled"),
    pytest.param(from_callable(_jump, discontinuities=(1.0,)),
                 lambda r: float(_jump(r)), [1.0], id="jump"),
])
def test_exposure_matches_polar_reference(g, gref, jumps):
    # C_R - sum H + sum Q against scipy quad in polar coordinates about
    # the point: interior, on a wall, a corner, near a corner, near a wall
    side = 8.0
    h = 0.5 * side
    table = _WallTable(g, side)
    for x, y in ((0.3, -0.2), (h, 0.7), (h, h), (h - 0.4, h - 0.9),
                 (-h + 0.05, 1.0), (-h, -h)):
        got = _exposure(table, x, y, 1.0, 1e-10)
        assert got == pytest.approx(polar_exposure(gref, jumps, x, y, h),
                                    rel=1e-9)


@pytest.mark.parametrize("side", [1e6, 1e8])
def test_exposure_on_huge_squares(side):
    # lognormal's g underflows past r ~ 1.7: centre, mid-wall and corner of
    # a huge square see the whole, half and a quarter of its mass
    g = lognormal(sigma=0.25, eta=4.0)
    C = integral_constant(g)
    h = 0.5 * side
    got = _exposure(_exposure_model(g, side), np.array([0.0, h, h]),
                    np.array([0.0, 0.0, h]), 1.0)
    assert got == pytest.approx([C, C / 2.0, C / 4.0], rel=1e-8)


@pytest.mark.parametrize("rho", [1e12, 1e16])
def test_lognormal_square_ew_matches_disk_at_huge_rho(rho):
    # lognormal(0.25, 4) is nearly a unit disk; at these densities only the
    # boundary layers of width ~1 matter, and they see the same shape
    logn = ModelSpec(model="square", rho=rho, b=0.0,
                     g=lognormal(sigma=0.25, eta=4.0))
    disk = expected_isolated_square(_disk_spec("square", rho))
    assert expected_isolated_square(logn) == pytest.approx(disk, rel=1e-3)


def _square_ew_and_points(spec, monkeypatch):
    # E(W) and the number of exposure points its quadrature evaluated,
    # counted by wrapping the exposure of the model the solve builds
    import rcm_lab.quadrature as quadrature

    build = quadrature._exposure_model
    points = []

    def counting_model(*args, **kwargs):
        model = build(*args, **kwargs)
        exposure = model.exposure

        def counted(d, rel_tol):
            points.append(d.shape[1])
            return exposure(d, rel_tol)

        model.exposure = counted
        return model

    monkeypatch.setattr(quadrature, "_exposure_model", counting_model)
    return expected_isolated_square(spec), sum(points)


@pytest.mark.parametrize("g", [unit_disk(1.0), lognormal(0.25, 4.0)],
                         ids=["unit_disk", "lognormal"])
def test_square_ew_cost_does_not_grow_with_rho(g, monkeypatch):
    # the region integrals run in wall distances, so a node near a wall is
    # as exact on a side-1e11 square as on a small one: the adaptive rules
    # find no rounding noise to refine into.  lognormal(0.25, 4) is nearly
    # a unit disk, and only boundary layers of width ~1 matter here.
    _, n16 = _square_ew_and_points(ModelSpec("square", 1e16, 0.0, g),
                                   monkeypatch)
    ew24, n24 = _square_ew_and_points(ModelSpec("square", 1e24, 0.0, g),
                                      monkeypatch)
    assert 0 < n24 <= n16
    disk = expected_isolated_square(_disk_spec("square", 1e24))
    assert ew24 == pytest.approx(disk, rel=1e-4)


@pytest.mark.parametrize("rho", [1e22, 1e24])
@pytest.mark.parametrize("g", [unit_disk(1.0), lognormal(0.25, 4.0)],
                         ids=["unit_disk", "lognormal"])
def test_isolation_report_decomposes_at_huge_rho(g, rho):
    rep = isolation_report(ModelSpec(model="square", rho=rho, b=0.0, g=g))
    assert rep.tolerances["decomposition_residual"] <= 1e-9
    assert rep.side > 0.4 and 0.0 < rep.corner < 1e-6


def test_wall_table_says_when_it_misses_its_budget():
    # an undeclared jump that no level radius finds spoils the direct
    # integrals the table is checked against: the build must say so
    with pytest.raises(NonConvergentError, match="reached error .* wanted"):
        _WallTable(from_callable(_jump), 8.0)


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
        _exposure(_exposure_model(g, d.core_side), pts[:, 0], pts[:, 1],
                  d.density)
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

    def want(p, q, h):
        val, _ = dblquad(
            lambda y, x: (gref(math.hypot(x - p[0], y - p[1]))
                          * gref(math.hypot(x - q[0], y - q[1]))),
            -h, h, -h, h, epsabs=1e-11, epsrel=1e-9)
        return val

    # the model integrates over the lens of the pair's R-disks (R = 1.126,
    # past which this g holds under 1e-16 of its mass); the reference over
    # the whole square.  Interior, corner and wall pairs, then one whose
    # disks do not meet:
    h = 4.0
    model = _WallIntegrals(g, 2.0 * h)
    x1 = np.array([(0.3, -0.2), (3.6, 3.7), (-3.9, 0.5), (-3.5, 0.0)])
    x2 = np.array([(1.1, 0.4), (2.9, 3.1), (-3.2, -0.6), (1.0, 0.2)])
    # abs_tol 1e-10 keeps the rel 1e-7 comparison meaningful
    got = model.cross(x1, x2, 1e-10)
    assert got.shape == (4,)
    for p, q, v in zip(x1[:3], x2[:3], got):
        assert v == pytest.approx(want(p, q, h), rel=1e-7)
    assert got[3] == 0.0
    # one array call gives what single-pair calls give
    for i in range(4):
        one = model.cross(x1[i:i + 1], x2[i:i + 1], 1e-10)
        assert one.shape == (1,)
        assert got[i] == pytest.approx(one[0], rel=1e-10, abs=0.0)
    assert model.cross(np.empty((0, 2)), np.empty((0, 2)),
                       1e-10).shape == (0,)
    # a wall pair of a xi_2 run (rho 1e2, seed 1) on which GK15 converged
    # falsely, 2.2e-4 off, at tolerances 1e-5 outer and 1e-6 inner
    h = 4.13058956189767
    p, q = (1.85724003, 3.9932344), (1.89442304, 3.79686609)
    v = _WallIntegrals(g, 2.0 * h).cross(np.array([p]), np.array([q]),
                                         1e-10)[0]
    assert v == pytest.approx(want(p, q, h), rel=1e-7)


def _rel_cross_tol(model, x1, x2):
    # per pair, an absolute tolerance no looser than max(1e-12, 1e-7 |v|),
    # the relative tolerance the bounds below were set at: |v| is read off
    # a run to abs 1e-5, less that run's tolerance, so it is never high
    v = np.abs(model.cross(x1, x2, 1e-5)) - 1e-5
    return np.maximum(1e-12, 1e-7 * v)


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
    model = _WallIntegrals(g, d.core_side)
    tol = _rel_cross_tol(model, x1, x2)
    tracemalloc.start()
    try:
        model.cross(x1, x2, tol)
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
    model = _exposure_model(g, side)
    for dx, dy in ((1.0097, 0.0195), (0.15, 1.0), (0.0, 0.85), (0.0, 0.0),
                   (0.05, 0.6), (0.4, h)):
        x, y = h - dx, h - dy
        got = _exposure(model, x, y, 1.0)
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


@pytest.mark.parametrize("g, rho", [
    pytest.param(theta_tail(0.5), 2e3, id="theta_tail"),
    pytest.param(theta_tail(0.5), 1e8, id="theta_tail_1e8"),
    pytest.param(omega_tail(1.5), 1e4, id="omega_tail"),
    pytest.param(lognormal(sigma=1.5, eta=1.0), 1e2, id="lognormal_wide"),
])
def test_torus_ew_fits_no_wall_table(g, rho, monkeypatch):
    # alone, the torus E(W) takes its four H and Q values from direct
    # integrals; with a table (as isolation_report shares one) it reads
    # them from the table, and the two agree
    import rcm_lab.quadrature as quadrature

    spec = ModelSpec(model="torus", rho=rho, b=0.0, g=g)
    _, d, gf = _frame(spec)
    with_table = _torus_ew(d, _WallTable(gf, d.core_side), 1e-9)

    def no_table(*args):
        raise AssertionError("the torus E(W) fitted a wall table")

    monkeypatch.setattr(quadrature, "_WallTable", no_table)
    alone = expected_isolated_torus(spec)
    assert alone == pytest.approx(with_table, rel=1e-12, abs=0.0)
    # g reaches the walls from the centre, so H(side / 2) is not zero
    assert _WallIntegrals(gf, d.core_side).R > 0.5 * d.core_side


def test_inner_exposure_fits_no_wall_table(monkeypatch):
    # one point takes its H and Q values from direct integrals, and they
    # agree with the table's near a wall and at a corner
    import rcm_lab.quadrature as quadrature

    spec = ModelSpec(model="square", rho=1e3, b=0.0,
                     g=lognormal(sigma=0.25, eta=4.0))
    _, d, gf = _frame(spec)
    h = 0.5 * d.core_side
    table = _WallTable(gf, d.core_side)
    points = [(h - 0.3, 0.7), (-h, h)]
    with_table = [_exposure(table, x, y, d.density) for x, y in points]

    def no_table(*args):
        raise AssertionError("inner_exposure fitted a wall table")

    monkeypatch.setattr(quadrature, "_WallTable", no_table)
    for p, want in zip(points, with_table):
        assert inner_exposure(p, spec) == pytest.approx(want, rel=1e-12,
                                                        abs=0.0)


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
    val = _region_integral(d.density, _exposure_model(g, d.core_side),
                           [0.0, 0.0], [h, h],
                           lambda u, k: np.where(k == 0, u, 0.0),
                           lambda u, k: h, 1e-6, 1e-8)
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
    assert 0.0 < rep.tolerances["exposure_table_error"] <= 1e-12

    rep = isolation_report(_disk_spec("square", 1000.0), rel_tol=1e-6)
    assert rep.EW == pytest.approx(rep.central + rep.side + rep.corner,
                                   rel=1e-6)
    assert rep.EW_torus == pytest.approx(1.0, rel=1e-9)
    assert rep.tolerances["exposure_table_error"] == 0.0  # closed form
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


def test_xi2_single_sample_error_is_unknown():
    # one sample has no spread to estimate: NaN, never a 0 that reads as exact
    for mode in ("importance", "uniform"):
        est, se = expected_components_order2(_disk_spec("square", 60.0),
                                             samples=1, seed=3, mode=mode)
        assert math.isfinite(est) and math.isnan(se)


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
    walls = np.stack([h - pts[:, 0], h + pts[:, 0], h - pts[:, 1],
                      h + pts[:, 1]])
    got = _disk_overlap_batch(walls, r)
    for p, v in zip(pts, got):
        assert v == pytest.approx(
            disk_square_overlap(p[0], p[1], r, h), abs=1e-12)


def test_disk_cross_batch_matches_generic():
    from rcm_lab.quadrature import _disk_cross_batch

    h, r = 4.43, 1.0
    g = unit_disk(r)
    rng = np.random.default_rng(22)
    x1 = rng.random((6, 2)) * 2 * h - h
    x2 = x1 + rng.normal(scale=0.7, size=(6, 2))  # keep most pairs close
    x2 = np.clip(x2, -h, h)
    got = _disk_cross_batch(x1, x2, r, h)
    want = _WallIntegrals(g, 2.0 * h).cross(x1, x2, 1e-10)
    for v, w in zip(got, want):
        assert v == pytest.approx(w, rel=1e-6, abs=1e-6)
    # disjoint disks share no mass
    far = _disk_cross_batch(np.array([[-h + 0.1, 0.0]]),
                            np.array([[h - 0.1, 0.0]]), r, h)
    assert far[0] == 0.0


def test_xi2_stratified_path_frozen_reference():
    # rho=1000: a square of side 21.3 whose wall band (width 1) holds under
    # a fifth of the area, yet the envelope's band cells carry most of x1's
    # draws; 0.915 +/- 0.010 is the pooled mean of >8000 independent
    # simulated trials of the same model
    est, se = expected_components_order2(_disk_spec("square", 1000.0),
                                         samples=40_000, seed=5)
    assert 0.0 < se < 0.02
    assert abs(est - 0.915) <= 3.5 * math.hypot(se, 0.0103)


@pytest.mark.parametrize("seed", [14000, 15000])
def test_xi2_small_sample_error_bar_is_honest(seed):
    # 48 samples, as in the benchmark's lognormal workload, on the seeds
    # whose error bars came out smallest when x1 was drawn uniformly (seed
    # 15000: 0.576 +- 0.084).  1.06465 +- 0.00528 is the mean of 40 000
    # simulated square-frame trials.
    spec = ModelSpec(model="square", rho=1e2, b=0.0, g=lognormal(0.25, 4.0))
    est, se = expected_components_order2(spec, samples=48, seed=seed)
    assert abs(est - 1.06465) <= 3.0 * math.hypot(se, 0.00528)


def _xi2_pairs(spec, seed, monkeypatch):
    # (model, x1, x2, abs_tol) of the cross masses of one 48-sample xi_2
    calls = []
    cross = _WallIntegrals.cross

    def keep_pairs(model, x1, x2, abs_tol):
        calls.append((model, x1, x2, abs_tol))
        return cross(model, x1, x2, abs_tol)

    with monkeypatch.context() as m:
        m.setattr(_WallIntegrals, "cross", keep_pairs)
        expected_components_order2(spec, samples=48, seed=seed)
    (call,) = calls
    return call


def test_xi2_cross_masses_stay_cheap(monkeypatch):
    # the 48 cross masses of the benchmark's lognormal xi_2 (seed 15000)
    # integrate over the lens of each pair's R-disks: about 3.1 M GK15
    # nodes at rel 1e-7, where a box of half-width effective_cutoff(g,
    # 1e-12) took 5.1 M
    import rcm_lab._quadcore as quadcore

    spec = ModelSpec(model="square", rho=1e2, b=0.0, g=lognormal(0.25, 4.0))
    model, x1, x2, _ = _xi2_pairs(spec, 15000, monkeypatch)
    assert x1.shape == (48, 2)

    nodes = []
    panels_eval = quadcore._panels_eval

    def count_nodes(f, los, his, owner):
        nodes.append(15 * los.size)
        return panels_eval(f, los, his, owner)

    tol = _rel_cross_tol(model, x1, x2)
    monkeypatch.setattr(quadcore, "_panels_eval", count_nodes)
    model.cross(x1, x2, tol)
    assert sum(nodes) <= 3.6e6


@pytest.mark.parametrize("g, rho", [
    pytest.param(lognormal(0.25, 4.0), 1e2, id="lognormal-1e2"),
    pytest.param(lognormal(0.25, 4.0), 1e3, id="lognormal-1e3"),
    pytest.param(lognormal(1.5, 1.0), 1e2, id="lognormal_wide-1e2"),
])
def test_xi2_cross_masses_meet_their_weight_tolerance(g, rho, monkeypatch):
    # each cross mass is integrated to _CROSS_WEIGHT_TOL / lambda, so its
    # weight's exponent lambda * cross is off by at most _CROSS_WEIGHT_TOL;
    # the reference is the same rule at abs 1e-10, far below every
    # tolerance here (the smallest is 4.5e-6)
    spec = ModelSpec(model="square", rho=rho, b=0.0, g=g)
    model, x1, x2, abs_tol = _xi2_pairs(spec, 500, monkeypatch)
    lam = _frame(spec)[1].density
    assert abs_tol == pytest.approx(_CROSS_WEIGHT_TOL / lam, rel=1e-15)
    got = model.cross(x1, x2, abs_tol)
    want = model.cross(x1, x2, 1e-10)
    assert np.all(lam * np.abs(got - want) <= _CROSS_WEIGHT_TOL)


# Two pairs of xi_2 runs at rho 1e2 on which a loose rule converged
# falsely.  The wall pair (seed 1, as in
# test_cross_mass_generic_matches_dblquad) reached lambda * error 3.2e-4 at
# tau 1e-4 unless g's half-level circle splits the panels.  The corner pair
# (seed 1 again) stayed at 7.6e-6 for every tau from 1e-3 to 1e-5 unless
# the heights where the circles cross the side wall split them.
_WALL_PAIR = ((1.85724003, 3.9932344), (1.89442304, 3.79686609))
_CORNER_PAIR = ((3.80823816, 4.0221766), (3.96485552, 4.00189739))


@pytest.mark.parametrize("pair, tau", [
    pytest.param(_WALL_PAIR, 1e-4, id="wall-1e-4"),
    pytest.param(_WALL_PAIR, 1e-5, id="wall-1e-5"),
    pytest.param(_CORNER_PAIR, 1e-5, id="corner-1e-5"),
    pytest.param(_CORNER_PAIR, 1e-6, id="corner-1e-6"),
])
def test_cross_mass_wall_pairs_meet_a_loose_tolerance(pair, tau):
    g = lognormal(sigma=0.25, eta=4.0)
    lam = _frame(ModelSpec(model="square", rho=1e2, b=0.0, g=g))[1].density
    model = _WallIntegrals(g, 2.0 * 4.13058956189767)
    p, q = np.array(pair[:1]), np.array(pair[1:])
    got = model.cross(p, q, tau / lam)[0]
    want = model.cross(p, q, 1e-10)[0]
    assert lam * abs(got - want) <= tau


def test_xi2_cross_masses_cost_what_their_weights_need(monkeypatch):
    # the benchmark's lognormal xi_2 (seed 15000): its 48 cross masses took
    # 3.4 M GK15 nodes at rel 1e-7 and take about 2.1 M to the error their
    # weights can carry, and the estimate moves by under 1e-10 relative
    import rcm_lab._quadcore as quadcore

    spec = ModelSpec(model="square", rho=1e2, b=0.0, g=lognormal(0.25, 4.0))
    nodes = []
    cross = _WallIntegrals.cross
    panels_eval = quadcore._panels_eval

    def count_nodes(f, los, his, owner):
        nodes.append(15 * los.size)
        return panels_eval(f, los, his, owner)

    def counted_cross(model, x1, x2, abs_tol):
        with monkeypatch.context() as m:
            m.setattr(quadcore, "_panels_eval", count_nodes)
            return cross(model, x1, x2, abs_tol)

    monkeypatch.setattr(_WallIntegrals, "cross", counted_cross)
    est, _ = expected_components_order2(spec, samples=48, seed=15000)
    assert 0 < sum(nodes) <= 2.2e6
    assert est == pytest.approx(1.04816727022856, rel=1e-7, abs=0.0)


def test_cross_mass_that_misses_its_tolerance_raises(monkeypatch):
    # a pair whose reached error exceeds its tolerance (one stopped at its
    # panel limit, say) must raise, never return quietly
    import rcm_lab.quadrature as quadrature

    nested = quadrature.nested_quad

    def missing(*args, **kwargs):
        val, err = nested(*args, **kwargs)
        err[1] = 3.0 * kwargs["abs_tol"][1]
        return val, err

    monkeypatch.setattr(quadrature, "nested_quad", missing)
    model = _WallIntegrals(lognormal(sigma=0.25, eta=4.0), 8.0)
    x1 = np.array([(0.3, -0.2), (3.6, 3.7)])
    x2 = np.array([(1.1, 0.4), (2.9, 3.1)])
    with pytest.raises(NonConvergentError, match="1 of 2 cross masses"):
        model.cross(x1, x2, 1e-6)
    spec = ModelSpec(model="square", rho=1e2, b=0.0, g=lognormal(0.25, 4.0))
    with pytest.raises(NonConvergentError, match="cross masses missed"):
        expected_components_order2(spec, samples=4, seed=1)


def test_cross_mass_whose_inner_integrals_miss_raises(monkeypatch):
    # an inner integral that stops short of its tolerance counts against
    # its pair: here every inner integral reports 100 times its tolerance
    import rcm_lab._quadcore as quadcore

    batched = quadcore.batched_quad
    depth = []

    def inner_misses(f, a, b, rel_tol=1e-10, abs_tol=0.0, **kwargs):
        depth.append(f)
        try:
            val, err = batched(f, a, b, rel_tol, abs_tol, **kwargs)
        finally:
            depth.pop()
        if depth:  # called from inside an outer integrand
            err = err + 100.0 * np.asarray(abs_tol)
        return val, err

    monkeypatch.setattr(quadcore, "batched_quad", inner_misses)
    model = _WallIntegrals(lognormal(sigma=0.25, eta=4.0), 8.0)
    x1 = np.array([(0.3, -0.2), (3.6, 3.7)])
    x2 = np.array([(1.1, 0.4), (2.9, 3.1)])
    with pytest.raises(NonConvergentError, match="2 of 2 cross masses"):
        model.cross(x1, x2, 1e-6)


@pytest.mark.parametrize("model", ["torus", "window"])
def test_xi2_rejects_frames_other_than_the_square(model):
    # xi_2 integrates square exposures and cross masses; on the torus (unit
    # disk, rho 1e3) that gave the square's 0.9256 for a true 0.342
    spec = ModelSpec(model=model, rho=1e3, b=0.0, g=unit_disk(1.0))
    with pytest.raises(ValueError, match="square frame"):
        expected_components_order2(spec, samples=10, seed=1)


@pytest.mark.parametrize("model", ["dense", "extended"])
def test_xi2_of_a_rescaled_square_is_the_squares(model):
    square = ModelSpec(model="square", rho=1e3, b=0.0, g=unit_disk(1.0))
    spec = ModelSpec(model=model, rho=1e3, b=0.0, g=unit_disk(1.0))
    got = expected_components_order2(spec, samples=200, seed=1)
    want = expected_components_order2(square, samples=200, seed=1)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("g", [unit_disk(1.0), lognormal(0.25, 4.0),
                               theta_tail(0.5)],
                         ids=["unit_disk", "lognormal", "theta_tail"])
def test_exposure_falls_toward_each_wall(g):
    # The xi_2 envelope bounds exp(-I) on a cell by its value at the cell's
    # outer corner, which needs I(x, y) >= I(x', y) for 0 <= x < x' <= h
    # and the same in y; the slack covers the exposure's rel_tol of 1e-8.
    _, d, gf = _frame(ModelSpec(model="square", rho=1e2, b=0.0, g=g))
    h = 0.5 * d.core_side
    rng = np.random.default_rng(31)
    t = np.sort(np.concatenate([[0.0, h], rng.random(38) * h]))
    grid = _exposure(_exposure_model(gf, d.core_side), t[:, None],
                     t[None, :], d.density)
    slack = 4e-8 * grid.max()
    assert np.all(np.diff(grid, axis=0) <= slack)
    assert np.all(np.diff(grid, axis=1) <= slack)
    assert grid[0, 0] > grid[-1, 0] > grid[-1, -1]
