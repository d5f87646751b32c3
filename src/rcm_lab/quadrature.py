"""Isolation-probability integrals and small-component expectations.

The central object is the exposure I(y) = lambda * integral_A g(|x - y|) dx:
the expected number of neighbours a node at y would see.  Expectations of
isolated-node counts are integrals of lambda * exp(-I(y)).

Exposures use a radial-angular decomposition: the circle of radius r around
y meets the square in arcs whose total angle has a closed form, so I(y)
reduces to a 1-D integral of g(r) * r * angle(r).  These radial integrals
are never taken one point at a time: one array call of batched_quad
integrates a whole block of points, each split at its own wall and corner
distances and at halvings of its farthest radius.  A hard disk needs no
quadrature at all: I(y) is lambda times the area of disk and square, and
the xi_2 cross mass of a pair is the area of both disks and the square,
both closed forms from geometry.  Integrals of exp(-I) over regions
{x0 <= x <= x1, ylo(x) <= y <= yhi(x)} are one two-level array quadrature
(_quadcore.nested_quad), split where a structural radius of g, or its
cutoff at tail mass 1e-12, reaches a wall: the inner y-integrals of all
outer nodes go to array calls together.  For any other g the xi_2 cross
masses of all sampled pairs are one such call too, split where each pair's
structural circles cross.  EW is eight copies of the triangle
{0 <= y <= x <= side/2}, and the central/side/corner split (Coon, Dettmann
and Georgiou 2012) is one call over a triangle, a strip and a square.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quadcore import batched_quad, nested_quad
from .connfn import _head_breakpoints, classify_tail, effective_cutoff, integral_constant
from .geometry import _disk_cross_batch, _disk_overlap_batch
from .models import derive, frame_connection


@dataclass(frozen=True)
class IsolationIntegrals:
    EW: float
    EW_torus: float
    EW_infinite: float
    ratio: float              # EW / EW_infinite
    central: float
    side: float
    corner: float
    margin: float             # decomposition margin r_rho^(-eps)
    eps: float
    tolerances: dict


def _check_rel_tol(rel_tol):
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1), got %r" % (rel_tol,))


def _frame(spec):
    spec = spec.with_constant()
    d = derive(spec)
    return spec, d, frame_connection(spec)


def _structural_radii(g, upto):
    radii = set()
    if math.isfinite(g.support_radius) and 0.0 < g.support_radius < upto:
        radii.add(g.support_radius)
    for b in _head_breakpoints(g, upto):
        if 0.0 < b < upto:
            radii.add(float(b))
    return sorted(radii)


def _inside_angle(r, d_edges):
    """Angular measure of the circle of radius r (around an interior point
    with the given edge distances) that stays inside the square."""
    dr, dl, dt, db = d_edges
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = 2.0 * math.pi * np.ones_like(r)
        for de in (dr, dl, dt, db):
            theta -= 2.0 * np.arccos(np.clip(de / r, 0.0, 1.0))
        for dx, dy in ((dr, dt), (dt, dl), (dl, db), (db, dr)):
            over = (0.5 * math.pi
                    - np.arcsin(np.clip(dx / r, 0.0, 1.0))
                    - np.arcsin(np.clip(dy / r, 0.0, 1.0)))
            theta += np.maximum(over, 0.0)
    return np.clip(theta, 0.0, 2.0 * math.pi)


# Points per _exposure pass.  A pass integrates its points' exposures in one
# array batched_quad call, which keeps every panel of every point alive (40
# to 90 panels per point, several float64 arrays each) until the pass ends.
# With 512-point passes, 20 000 lognormal points peak at about 3 MB traced;
# in a single pass they take 46 MB, and theta_tail points 87 MB.
_EXPOSURE_BLOCK = 512


def _exposure(ax, ay, side, lam, g, rel_tol=1e-8):
    """lambda * integral over the side-length square of g(|x - y|) dx.

    Evaluated at every point of the broadcast coordinate arrays ax, ay; a
    float for scalar coordinates.  A hard disk has the closed form
    lambda * |disk(y, r) & A|; any other g is integrated radially, r from 0
    to the farthest corner, split at its structural radii and at the wall
    and corner distances of each point.
    """
    ax, ay = np.broadcast_arrays(np.asarray(ax, dtype=float),
                                 np.asarray(ay, dtype=float))
    shape = ax.shape
    ax, ay = ax.ravel(), ay.ravel()
    h = 0.5 * side
    disk_r = _disk_radius(g)
    val = np.empty(ax.size)
    for lo in range(0, ax.size, _EXPOSURE_BLOCK):
        bx, by = ax[lo:lo + _EXPOSURE_BLOCK], ay[lo:lo + _EXPOSURE_BLOCK]
        # Wall distances (right, left, top, bottom), one row per point.
        d = np.stack([h - bx, h + bx, h - by, h + by], axis=1)
        if np.any(d < -1e-12 * side):
            raise ValueError("exposure point lies outside the square")
        if disk_r is None:
            val[lo:lo + _EXPOSURE_BLOCK] = _radial_exposure(d, g, rel_tol)
        else:
            val[lo:lo + _EXPOSURE_BLOCK] = _disk_overlap_batch(
                np.stack([bx, by], axis=1), disk_r, h)
    out = lam * val.reshape(shape)
    return float(out) if out.ndim == 0 else out


def _radial_exposure(d, g, rel_tol):
    """integral_0^rmax g(r) r angle(r) dr for each row of wall distances d."""
    corners = np.hypot(d[:, [0, 2, 1, 3]], d[:, [2, 1, 3, 0]])
    rmax = corners.max(axis=1)
    if math.isfinite(g.support_radius):
        rmax = np.minimum(rmax, g.support_radius)
    radii = np.array(_structural_radii(g, rmax.max(initial=0.0)))
    rcol = rmax[:, None]
    cand = np.concatenate([np.broadcast_to(radii, (rmax.size, radii.size)),
                           d, corners], axis=1)
    breaks = np.where((cand > 0.0) & (cand < rcol), cand, np.nan)
    # A smooth g has no structural radii, so its fall-off could sit inside
    # one long panel whose 15 nodes miss it while the error estimate
    # passes: halvings of rmax down to rmax / 1024 put panel edges at every
    # scale.
    halvings = rcol * 2.0 ** -np.arange(1, 11)
    breaks = np.concatenate([breaks, halvings], axis=1)
    edges = d.T

    def integrand(r, k):
        return g._eval(r) * r * _inside_angle(r, edges[:, k])

    val, _ = batched_quad(integrand, np.zeros_like(rmax), rmax,
                          rel_tol=rel_tol, breakpoints=breaks)
    return val


def inner_exposure(y, spec, rel_tol=1e-8):
    """Exposure I(y) for a point of the model's square (core for window)."""
    spec, d, g = _frame(spec)
    y = np.asarray(y, dtype=float)
    return _exposure(float(y[0]), float(y[1]), d.core_side, d.density, g,
                     rel_tol=rel_tol)


def _survival(xs, ys, side, lam, g, inner_tol):
    """exp(-I) at every point of the broadcast coordinate arrays xs, ys."""
    return np.exp(-_exposure(xs, ys, side, lam, g, inner_tol))


def _region_integral(lam, side, g, x0, x1, ylo, yhi, rel_tol, inner_tol):
    """lambda * integral of exp(-I) over each region k of
    {x0_k <= x <= x1_k, ylo(x, k) <= y <= yhi(x, k)}; a length-n array.

    One nested_quad for all n regions; both levels split where a
    structural radius of g reaches a wall, at +-(h - rad).  The radii
    include g's cutoff at tail mass 1e-12: farther than that from every
    wall, exp(-I) is constant to 1e-12 of g's mass.
    """
    h = 0.5 * side
    upto = side * math.sqrt(2.0)
    radii = set(_structural_radii(g, upto))
    cut = effective_cutoff(g, 1e-12)
    if cut < upto:
        radii.add(cut)
    kinks = []
    for rad in sorted(radii):
        kinks.extend((h - rad, rad - h))

    def inner(xs, k):
        return ylo(xs, k), yhi(xs, k), kinks

    def f(ys, xs, k):
        return _survival(xs, ys, side, lam, g, inner_tol)

    n = np.broadcast(x0, x1).size
    val, _ = nested_quad(f, x0, x1, inner, rel_tol=rel_tol / 2.0,
                         breakpoints=np.broadcast_to(kinks, (n, len(kinks))),
                         inner_rel_tol=rel_tol / 4.0, limit=400)
    return lam * val


def _decomposed_pieces(lam, side, g, margin, rel_tol, inner_tol):
    """(central, side, corner) contributions with the given split margin.

    One _region_integral over three regions of the fundamental triangle:
    the central triangle (8 copies), a side strip (8) and a corner square
    (4), split at h - margin.
    """
    h = 0.5 * side
    hp = h - margin

    def ylo(x, k):
        return np.where(k == 2, hp, 0.0)

    def yhi(x, k):
        return np.where(k == 0, x, np.where(k == 1, hp, h))

    val = _region_integral(lam, side, g, [0.0, hp, hp], [hp, h, h], ylo, yhi,
                           rel_tol, inner_tol)
    return tuple((np.array([8.0, 8.0, 4.0]) * val).tolist())


def expected_isolated_square(spec, rel_tol=1e-6):
    """E(W) for the square frame: integral of lambda * exp(-I(y)) over A,
    eight copies of the fundamental triangle {0 <= y <= x <= side/2}."""
    _check_rel_tol(rel_tol)
    spec, d, g = _frame(spec)
    side, lam = d.core_side, d.density
    inner_tol = min(1e-8, rel_tol * 1e-2)
    val = _region_integral(lam, side, g, 0.0, 0.5 * side,
                           lambda x, k: 0.0, lambda x, k: x, rel_tol,
                           inner_tol)
    return 8.0 * float(val[0])


def expected_isolated_torus(spec, rel_tol=1e-9):
    """E(W) for the torus frame: rho * exp(-lambda * integral_A g(|x|) dx).

    On the torus every point sees the same exposure, so one radial integral
    anchored at the center settles it.
    """
    _check_rel_tol(rel_tol)
    spec, d, g = _frame(spec)
    i0 = _exposure(0.0, 0.0, d.core_side, d.density, g, rel_tol=rel_tol)
    return d.lam * d.core_side ** 2 * math.exp(-i0)


def expected_isolated_infinite(b):
    """Plane limit of the expected isolated count: exactly exp(-b)."""
    if not math.isfinite(b):
        raise ValueError("b must be finite")
    return math.exp(-b)


def truncation_limit(g, b):
    """Limit of E(W^T) implied by the tail class of g.

    little_o tails give exp(-b); an exact a / (x^2 ln^2 x) tail shifts the
    limit to exp(-b + 4 pi a / C); heavier tails diverge (returns inf).
    Raises InconclusiveTailError when the diagnostic cannot classify g.
    """
    tc = classify_tail(g)
    if tc.kind == "little_o":
        return math.exp(-b)
    if tc.kind == "theta":
        C = integral_constant(g)
        return math.exp(-b + 4.0 * math.pi * tc.limit_estimate / C)
    return math.inf


def isolation_report(spec, rel_tol=1e-6, eps=0.2):
    """All isolation expectations plus the boundary decomposition of EW.

    The decomposition splits the square at margin r_rho^(-eps) into a
    central block, four side strips, and four corner squares; their sum
    reproduces EW to within the quadrature tolerance.
    """
    if not 0.0 < eps < 0.25:
        raise ValueError("eps must lie in (0, 1/4)")
    _check_rel_tol(rel_tol)
    spec, d, g = _frame(spec)
    side, lam = d.core_side, d.density
    margin = d.r_rho ** (-eps)
    if 2.0 * margin >= side:
        raise ValueError("decomposition margin exceeds the half-side; "
                         "increase rho or decrease eps")

    inner_tol = min(1e-8, rel_tol * 1e-2)
    ew = expected_isolated_square(spec, rel_tol=rel_tol)
    ew_t = expected_isolated_torus(spec, rel_tol=min(rel_tol, 1e-9))
    ew_inf = expected_isolated_infinite(spec.b)

    central, side_term, corner = _decomposed_pieces(
        lam, side, g, margin, rel_tol, inner_tol)

    total = central + side_term + corner
    resid = abs(total - ew) / max(abs(ew), 1e-300)
    return IsolationIntegrals(
        EW=ew, EW_torus=ew_t, EW_infinite=ew_inf, ratio=ew / ew_inf,
        central=central, side=side_term, corner=corner,
        margin=margin, eps=eps,
        tolerances={"rel_tol": rel_tol, "inner_tol": inner_tol,
                    "decomposition_residual": resid})


def _disk_radius(g):
    """Radius when g is a (possibly rescaled) hard disk, else None."""
    if g.kind == "unit_disk":
        return g.params["r0"]
    if g.kind == "scaled":
        base = _disk_radius(g.params["base"])
        return None if base is None else base * g.params["factor"]
    return None


def _cross_mass_generic(x1, x2, g, h, reach):
    """integral over A of g(|y - p|) g(|y - q|) dy for every row pair p, q
    of the (n, 2) arrays x1, x2, by one two-level array quadrature.

    Each pair integrates over the part of A where both points are within
    reach (0 where those boxes do not meet): y splits at both centres and
    where a structural circle around one reaches height y, x at both
    centres and where such a circle crosses the line at height y.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    radii = _structural_radii(g, 2.0 * reach) + ([g.support_radius]
        if math.isfinite(g.support_radius) else [])
    radii = np.array(sorted(set(r for r in radii if r > 0.0)))
    lo, hi = np.full(x1.shape, -h), np.full(x1.shape, h)
    if math.isfinite(reach):
        lo = np.maximum(lo, np.maximum(x1, x2) - reach)
        hi = np.minimum(hi, np.minimum(x1, x2) + reach)

    # per pair: each centre's height, and that height +- every radius
    nbrk = 2 * (1 + 2 * radii.size)
    cy = np.stack([x1[:, 1], x2[:, 1]], axis=1)[:, :, None]
    ybreaks = np.concatenate([cy, cy - radii, cy + radii],
                             axis=2).reshape(x1.shape[0], nbrk)
    cx = np.stack([x1[:, 0], x2[:, 0]], axis=1)

    def inner(ys, k):
        # x-breaks of every node: each centre, and where each structural
        # circle around it crosses the line at height y (NaN if it misses).
        off = radii ** 2 - (ys[:, None, None] - cy[k]) ** 2
        w = np.sqrt(np.where(off > 0.0, off, np.nan))
        c = cx[k][:, :, None]
        brk = np.concatenate([c, c - w, c + w], axis=2)
        return lo[k, 0], hi[k, 0], brk.reshape(ys.size, nbrk)

    def f(xs, ys, k):
        d1 = np.hypot(xs - x1[k, 0], ys - x1[k, 1])
        d2 = np.hypot(xs - x2[k, 0], ys - x2[k, 1])
        return g._eval(d1) * g._eval(d2)

    val, _ = nested_quad(f, lo[:, 1], hi[:, 1], inner, rel_tol=1e-7,
                         abs_tol=1e-12,
                         breakpoints=ybreaks,
                         inner_rel_tol=1e-8, inner_abs_tol=1e-13)
    return val


# Equal cells across the wall band, per axis, of the x1 envelope.
_ENVELOPE_CELLS = 16


def _envelope_draw(rng, n, side, lam, g, band):
    """n points of the square drawn with density proportional to a
    piecewise-constant envelope of exp(-I), and 1 / density at each.

    The envelope is built on the quadrant [0, h]^2 and copied to the others
    by random signs.  Per axis its cells are [0, h - band] and
    _ENVELOPE_CELLS equal cells across the band; each cell holds exp(-I) at
    its outer corner, from one _exposure call on those corners.  For a
    non-increasing g, I falls toward each wall along each axis, so that
    value bounds exp(-I) on the cell; for any other g the estimator that
    divides by the density stays unbiased, only its weights are unbounded.
    """
    h = 0.5 * side
    edges = np.concatenate([[0.0],
                            np.linspace(h - band, h, _ENVELOPE_CELLS + 1)])
    width = np.diff(edges)
    cx, cy = np.meshgrid(edges[1:], edges[1:], indexing="ij")
    value = np.exp(-_exposure(cx, cy, side, lam, g, 1e-8)).ravel()
    cell_mass = np.outer(width, width).ravel() * value
    env_mass = float(cell_mass.sum())
    cell = rng.choice(value.size, size=n, p=cell_mass / env_mass)
    i, j = np.unravel_index(cell, cx.shape)
    x1 = np.column_stack([edges[i] + rng.random(n) * width[i],
                          edges[j] + rng.random(n) * width[j]])
    x1 *= rng.choice([-1.0, 1.0], size=(n, 2))
    return x1, 4.0 * env_mass / value[cell]


def expected_components_order2(spec, samples=20000, seed=0,
                               mode="importance"):
    """Monte Carlo estimate of the expected number of order-2 components.

    Integrates (lambda^2 / 2) g(|x1 - x2|) exp(-lambda * J(x1, x2)) over
    pairs in the square, where J is the exposure of the pair (union mass of
    the two connection profiles over A).  In "importance" mode x1 is drawn
    from a piecewise-constant envelope of exp(-I(x1)) (_envelope_draw), so
    the wall and corner points that dominate the isolation weights get the
    samples, and x2 is drawn with density proportional to g(|x2 - x1|)
    clipped to the square, which cancels the g factor.  For a
    non-increasing g every weight is then at most the envelope's mass times
    the mass of g, so the standard error can be trusted.  mode "uniform"
    draws both points uniformly: a plain cross-check sampler.

    Returns (estimate, standard_error) from exactly `samples` weights.  The
    standard error is NaN when samples is 1 (one sample has no spread), and
    exactly 0 only for a g of zero mass.
    """
    if mode not in ("importance", "uniform"):
        raise ValueError("mode must be 'importance' or 'uniform'")
    if not samples >= 1:
        raise ValueError("samples must be at least 1, got %r" % (samples,))
    spec, d, g = _frame(spec)
    side, lam = d.core_side, d.density
    h = 0.5 * side
    area = side * side
    rng = np.random.default_rng(int(seed))

    r_t = min(g.support_radius, side * math.sqrt(2.0))
    disk_r = _disk_radius(g)
    reach = g.support_radius
    if not math.isfinite(reach):
        cut = effective_cutoff(g, 1e-12)
        reach = cut if math.isfinite(cut) else math.inf

    # Monotone piecewise-constant envelope for the radial density ~ r g(r).
    K = 512
    edges = np.linspace(0.0, r_t, K + 1)
    gle = np.asarray(g._eval(edges[:-1]), dtype=float)
    mass = gle * 0.5 * (edges[1:] ** 2 - edges[:-1] ** 2)
    total_mass = float(mass.sum())
    if total_mass <= 0.0:
        return 0.0, 0.0
    cdf = np.cumsum(mass) / total_mass

    n = int(samples)
    if mode == "importance":
        x1, inv_density = _envelope_draw(rng, n, side, lam, g,
                                         min(reach, h))
        x2 = np.empty_like(x1)
        pending = np.arange(n)
        guard = 0
        while pending.size:
            guard += 1
            if guard > 100000:
                raise RuntimeError("x2 rejection sampler failed to terminate")
            m = pending.size
            kbin = np.searchsorted(cdf, rng.random(m), side="right")
            a = edges[kbin]
            bb = edges[kbin + 1]
            r = np.sqrt(rng.random(m) * (bb * bb - a * a) + a * a)
            ok = rng.random(m) * gle[kbin] < np.asarray(g._eval(r), dtype=float)
            ang = rng.random(m) * 2.0 * math.pi
            cand = x1[pending] + np.column_stack([r * np.cos(ang),
                                                  r * np.sin(ang)])
            inside = (np.abs(cand[:, 0]) <= h) & (np.abs(cand[:, 1]) <= h)
            good = ok & inside
            x2[pending[good]] = cand[good]
            pending = pending[~good]
    else:
        x1 = rng.random((n, 2)) * side - h
        x2 = rng.random((n, 2)) * side - h

    # Uniform pairs with g = 0 weigh nothing: skip their exposures and
    # cross masses.
    if mode == "importance":
        keep = slice(None)
    else:
        gd = np.asarray(g._eval(np.hypot(x1[:, 0] - x2[:, 0],
                                         x1[:, 1] - x2[:, 1])), dtype=float)
        keep = gd > 0.0
    p1, p2 = x1[keep], x2[keep]
    both = np.stack([p1, p2])
    z1, z2 = _exposure(both[..., 0], both[..., 1], side, lam, g, 1e-8) / lam
    if disk_r is not None:
        cross = _disk_cross_batch(p1, p2, disk_r, h)
    else:
        cross = _cross_mass_generic(p1, p2, g, h, reach)
    decay = np.exp(-lam * (z1 + z2 - cross))
    w = np.zeros(n)
    w[keep] = (inv_density * z1 * decay if mode == "importance"
               else area * area * gd[keep] * decay)

    scale = 0.5 * lam * lam
    # one sample carries no spread: the error is unknown, not zero
    se = float(w.std(ddof=1)) / math.sqrt(n) if n > 1 else math.nan
    return scale * float(w.mean()), scale * se
