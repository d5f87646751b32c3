"""Isolation-probability integrals and small-component expectations.

The central object is the exposure I(y) = lambda * integral_A g(|x - y|) dx:
the expected number of neighbours a node at y would see.  Expectations of
isolated-node counts are integrals of lambda * exp(-I(y)).

Every exposure is a function of y's distances to the four walls of the
square, and _exposure_model builds one model of it per (g, square), each
taking a (4, m) array of wall distances.  A hard disk needs no quadrature
at all: I(y) is lambda times the area of disk and square, and the xi_2
cross mass of a pair is the area of both disks and the square, closed
forms from geometry.  For any other g, truncate g at a radius R that no
point of the square can tell apart from infinity (g's tail mass beyond R
is below 1e-16 of C, or R = side * sqrt(2), the square's diagonal).
Inclusion-exclusion over the four wall half-planes and the four corner
quadrants (opposite half-planes never meet, no three meet) then gives the
face/edge/corner split of Coon, Dettmann and Georgiou (2012):

    I(y) / lambda = C_R - sum_walls H(d_w) + sum_corners Q(d_a, d_b),

with d_w the distance from y to wall w and

    C_R     = 2 pi int_0^R r g(r) dr                    (the plane mass),
    H(t)    = int_t^R 2 r g(r) arccos(t / r) dr         (beyond one wall),
    Q(a, b) = int_{sqrt(a^2+b^2)}^R r g(r) (arccos(a/r) - arcsin(b/r)) dr
                                                        (beyond two walls).

H depends on g and R alone, so a solve tabulates it once (_WallTable:
piecewise Chebyshev series, Trefethen 2013) and every exposure reads four
values from it; Q is integrated only for the corners within R of a point.
A torus E(W) on its own needs one point, the centre, and inner_exposure
one given point, so they integrate H and Q there directly (_WallIntegrals)
and fit no table.

E(W) and its central/side/corner split integrate exp(-I) in wall
coordinates u = h - x, v = h - y over regions of the triangle
{0 <= u <= v <= h}, eight copies of which make the square: one two-level
array quadrature (_quadcore.nested_quad), split where a structural radius
of g, or its cutoff at tail mass 1e-12, reaches a wall.  A near wall's
distance is then a quadrature node itself, exact on squares of any size.
xi_2 samples centred pairs, and their exposures take the wall distances
h -+ x, h -+ y; for a g other than a disk its cross masses are one more
nested quadrature, over the lens of each pair's two R-disks clipped to the
square, split where the pair's structural and half-level circles cross
each line and the side walls, and integrated to the absolute error its
xi_2 weight can carry (_CROSS_WEIGHT_TOL).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quadcore import batched_quad, nested_quad
from .connfn import (NonConvergentError, _structural_radii, classify_tail,
                     effective_cutoff, integral_constant)
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


def _level_radii(g, R):
    """Radii in (0, R) where g falls to 1/2 and to 1e-1, 1e-2, 1e-4, 1e-8
    and 1e-16, all found by one vectorised bisection (a crossing, for a g
    that is not monotone)."""
    levels = np.concatenate([[0.5], 10.0 ** -(2.0 ** np.arange(5))])
    lo, hi = np.zeros(levels.size), np.full(levels.size, R)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = np.asarray(g._eval(mid), dtype=float) > levels
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return np.unique(hi[(lo > 0.0) & (hi < R)])


def _cut_radius(g, side):
    """(R, level radii of g below R) for a square of this side.

    R is the first level radius past which g holds under 1e-16 of its mass
    (else effective_cutoff's doubling radius at that tail mass), capped at
    the diagonal side * sqrt(2): past R no point of the square can tell g
    from zero.
    """
    R = side * math.sqrt(2.0)
    try:
        R = min(R, effective_cutoff(g, 1e-16))
    except ArithmeticError:
        pass  # a tail too slow to bound: the diagonal is exact anyway
    levels = _level_radii(g, R)
    # g's mass beyond 0 and beyond each level radius, up to R
    starts = np.concatenate([[0.0], levels])
    mass, _ = batched_quad(lambda r, k: r * g._eval(r), starts, R,
                           rel_tol=1e-3, breakpoints=np.broadcast_to(
                               levels, (starts.size, levels.size)))
    light = mass[1:] <= 1e-16 * mass[0]
    if light.any():
        R = float(levels[np.argmax(light)])
    return R, levels[levels < R]


def _table_radii(g, R, levels):
    """Radii in (0, R) that split the wall table and every H and Q integral.

    g's structural radii; its level radii, so a smooth fall-off never hides
    inside one long panel; and doublings wherever two neighbours lie more
    than a factor 2 apart, so a long tail is cut at every scale.
    """
    radii = np.unique(np.concatenate([_structural_radii(g, R), levels]))
    radii = radii[radii > 0.0]
    radii = radii[np.diff(radii, prepend=0.0) > 1e-9 * radii]
    out = []
    for r0, r1 in zip(radii, np.append(radii[1:], R)):
        out.extend(r0 * 2.0 ** np.arange(math.ceil(math.log2(r1 / r0))))
    return np.array(out)


# Chebyshev degree of one piece of the wall table.  A piece interpolates H
# at the degree + 1 Chebyshev points of the second kind (both ends
# included), a discrete cosine transform whose matrix is _CHEB_FIT, and is
# checked at eight points symmetric about its centre, each halfway (in
# angle) between two of them.
_TABLE_DEGREE = 24
_CHEB_NODES = np.cos(math.pi * np.arange(_TABLE_DEGREE + 1) / _TABLE_DEGREE)
_CHEB_HALF = np.where(np.arange(_TABLE_DEGREE + 1) % _TABLE_DEGREE, 1.0, 0.5)
_CHEB_FIT = (2.0 / _TABLE_DEGREE * np.outer(_CHEB_HALF, _CHEB_HALF)
             * np.cos(math.pi / _TABLE_DEGREE
                      * np.outer(np.arange(_TABLE_DEGREE + 1),
                                 np.arange(_TABLE_DEGREE + 1))))
_CHEB_CHECKS = np.cos(math.pi * (np.array([0, 3, 6, 9, 14, 17, 20, 23]) + 0.5)
                      / _TABLE_DEGREE)
_CHEB_AT_CHECKS = np.polynomial.chebyshev.chebvander(_CHEB_CHECKS,
                                                     _TABLE_DEGREE)
# Largest wall-table error allowed at the check points, as a share of C_R,
# and the rounds of piece bisection allowed to reach it.  A singular point
# of H keeps about two pieces failing per round, so at most 4 per initial
# piece, plus 64, may await a check; more means the direct integrals
# themselves are off (a jump of g at no declared radius fails everywhere).
_TABLE_BUDGET = 1e-12
_TABLE_ROUNDS = 40

# Points per pass of wall-table lookups, and corner integrals per
# batched_quad call.  A corner call keeps every panel of every corner alive
# (about 9 per lognormal corner, several float64 arrays each) until it
# returns.  With 2048 per call, 20 000 random points of the rho = 1e2
# square peak at 3.5 MB traced for lognormal and 5.3 MB for theta_tail,
# whose R reaches all four corners of every point.  Disk exposures, closed
# forms, are taken in passes of the same size.
_EXPOSURE_BLOCK = 2048

# Error allowed in lambda * cross mass, the exponent that a cross mass
# enters a xi_2 weight through: an error e in a cross mass moves its weight
# by a factor exp(lambda e), so each cross mass is integrated to the
# absolute error _CROSS_WEIGHT_TOL / lambda.  A bias of 1e-5 per weight is
# about 1% of the standard error of a million-sample xi_2 run (the
# benchmark's 48 samples carry a relative standard error of 10.8%).
_CROSS_WEIGHT_TOL = 1e-5


class _WallIntegrals:
    """The exposure model I / lambda = C_R - sum_walls H(d_w) + sum_corners
    Q(d_a, d_b) of one g (not a hard disk) on one square, by direct
    integrals: R from _cut_radius, the _table_radii that split every
    integral, the plane mass C_R, and H and Q at given distances.

    Both H and Q are integrated in u with r = r0 + u^2, where r0 is the
    lower limit: that removes the square-root edge of the angle at r0.
    """

    def __init__(self, g, side):
        self.g, self.side = g, side
        self.R, self.levels = _cut_radius(g, side)
        self.radii = _table_radii(g, self.R, self.levels)
        self.C = 2.0 * float(self._wall_direct(np.zeros(1), 0.0)[0])

    def _wall_direct(self, t, abs_tol):
        """H at every distance of the array t, by one array batched_quad."""
        g = self.g

        def f(u, k):
            tk = t[k]
            r = tk + u * u
            angle = np.arctan2(u * np.sqrt(r + tk), tk)     # arccos(t / r)
            return 4.0 * u * r * g._eval(r) * angle

        with np.errstate(invalid="ignore"):
            brk = np.sqrt(self.radii[None, :] - t[:, None])
        val, _ = batched_quad(f, np.zeros(t.size),
                              np.sqrt(np.maximum(self.R - t, 0.0)),
                              rel_tol=1e-13, abs_tol=abs_tol,
                              breakpoints=brk)
        return val

    def walls(self, t):
        """H at every distance of the array t, by one direct integral per
        distinct distance (the torus centre has four equal ones)."""
        u, inv = np.unique(t, return_inverse=True)
        val = self._wall_direct(u, 1e-3 * _TABLE_BUDGET * self.C)
        return val[inv.reshape(-1)].reshape(t.shape)

    def corners(self, a, b, rel_tol):
        """Q(a, b) for every pair of the arrays a, b, by one array
        batched_quad over the distinct pairs, each to within
        max(rel_tol * Q, rel_tol * C_R / 16): four corners stay within
        rel_tol * C_R / 4."""
        g = self.g
        ab, inv = np.unique(np.stack([a, b], axis=1), axis=0,
                            return_inverse=True)
        a, b = ab.T
        rc = np.hypot(a, b)
        # r - a and r - b at r = rc, free of cancellation
        ra = b * b / np.maximum(rc + a, 1e-300)
        rb = a * a / np.maximum(rc + b, 1e-300)

        def f(u, k):
            ak, bk, ck = a[k], b[k], rc[k]
            u2 = u * u
            r = ck + u2
            sa = np.sqrt((ra[k] + u2) * (r + ak))   # sqrt(r^2 - a^2)
            sb = np.sqrt((rb[k] + u2) * (r + bk))   # sqrt(r^2 - b^2)
            # arccos(a/r) - arcsin(b/r) from its sine and cosine times r^2,
            # the sine with r^2 - rc^2 = u^2 (r + rc) factored out
            angle = np.arctan2(r * r * u2 * (r + ck) / (sa * sb + ak * bk),
                               ak * sb + bk * sa)
            return 2.0 * u * r * g._eval(r) * angle

        with np.errstate(invalid="ignore"):
            brk = np.sqrt(self.radii[None, :] - rc[:, None])
        val, _ = batched_quad(f, np.zeros(a.size),
                              np.sqrt(np.maximum(self.R - rc, 0.0)),
                              rel_tol=rel_tol, abs_tol=rel_tol * self.C / 16.0,
                              breakpoints=brk)
        return val[inv.reshape(-1)]

    def exposure(self, d, rel_tol):
        """I / lambda at each column of d, the (4, m) wall distances
        (right, left, top, bottom); corners to within rel_tol * C_R / 16."""
        m = d.shape[1]
        val = np.full(m, self.C)
        for lo in range(0, m, _EXPOSURE_BLOCK):
            val[lo:lo + _EXPOSURE_BLOCK] -= self.walls(
                d[:, lo:lo + _EXPOSURE_BLOCK]).sum(axis=0)
        # corners (right, top), (top, left), (left, bottom), (bottom, right)
        a, b = np.maximum(d[[0, 2, 1, 3]], 0.0), np.maximum(d[[2, 1, 3, 0]], 0.0)
        near = np.hypot(a, b) < self.R
        a, b = a[near], b[near]
        q = np.empty(a.size)
        for lo in range(0, a.size, _EXPOSURE_BLOCK):
            q[lo:lo + _EXPOSURE_BLOCK] = self.corners(
                a[lo:lo + _EXPOSURE_BLOCK], b[lo:lo + _EXPOSURE_BLOCK], rel_tol)
        return val + np.bincount(np.nonzero(near)[1], q, minlength=m)

    def cross(self, x1, x2, abs_tol):
        """xi_2 cross masses: integral over A of g(|y - p|) g(|y - q|) dy
        for every row pair p, q of the centred (n, 2) arrays x1, x2, each
        to within the absolute error abs_tol, by one two-level array
        quadrature.

        g is zero past R to every point of the square, so each pair
        integrates over the lens of its two R-disks clipped to A (0 where
        the disks do not meet): y between the disks' common heights, split
        at both centres, at each centre -+ R and -+ every split radius,
        and where those circles cross the side walls; x along the chord
        both disks share at height y, split at both centres and where a
        split circle crosses the line.  The split radii are g's structural
        radii and the radius where g falls to 1/2 (the first level
        radius): on a roll-off left inside panels, a loose GK15 rule can
        converge falsely.  abs_tol is one figure or one per pair; the
        outer level takes nine tenths of it and the inner errors, summed
        over the pair's y-range, the rest.  NonConvergentError says when a
        pair's reached error, both levels together, exceeds abs_tol (an
        integral that stopped at its panel limit, say); xi_2 passes
        abs_tol = _CROSS_WEIGHT_TOL / lambda, so the factor it gives times
        _CROSS_WEIGHT_TOL is the worst lambda * error.
        """
        g, h, R = self.g, 0.5 * self.side, self.R
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        n = x1.shape[0]
        radii = np.unique(np.concatenate([_structural_radii(g, R),
                                          self.levels[:1]]))
        cx = np.stack([x1[:, 0], x2[:, 0]], axis=1)
        cy = np.stack([x1[:, 1], x2[:, 1]], axis=1)
        around = np.append(radii, R)
        # heights where each circle crosses a side wall x = -+h (NaN if it
        # misses): there the part of its roll-off inside A changes shape
        gap = np.stack([h - cx, h + cx], axis=2)[..., None]
        off = (around ** 2 - gap ** 2).reshape(n, 2, 2 * around.size)
        ws = np.sqrt(np.where(off > 0.0, off, np.nan))
        c = cy[:, :, None]
        ybreaks = np.concatenate([c, c - around, c + around, c - ws, c + ws],
                                 axis=2).reshape(n, 2 * (1 + 6 * around.size))
        ylo = np.maximum(cy.max(axis=1) - R, -h)
        yhi = np.minimum(cy.min(axis=1) + R, h)

        def inner(ys, k):
            dy2 = (ys[:, None] - cy[k]) ** 2
            w = np.sqrt(np.maximum(R * R - dy2, 0.0))    # R-disk half-chords
            lo = np.maximum((cx[k] - w).max(axis=1), -h)
            hi = np.minimum((cx[k] + w).min(axis=1), h)
            # each centre, and where each split circle around it
            # crosses the line at height y (NaN if it misses)
            off = radii ** 2 - dy2[:, :, None]
            ws = np.sqrt(np.where(off > 0.0, off, np.nan))
            c = cx[k][:, :, None]
            brk = np.concatenate([c, c - ws, c + ws], axis=2)
            return lo, hi, brk.reshape(ys.size, -1)

        def f(xs, ys, k):
            ax, ay = xs - x1[k, 0], ys - x1[k, 1]
            bx, by = xs - x2[k, 0], ys - x2[k, 1]
            return (g._eval(np.sqrt(ax * ax + ay * ay))
                    * g._eval(np.sqrt(bx * bx + by * by)))

        abs_tol = np.broadcast_to(np.asarray(abs_tol, dtype=float), (n,))
        span = np.maximum(yhi - ylo, 1.0)
        val, err = nested_quad(f, ylo, yhi, inner, rel_tol=0.0,
                               abs_tol=0.9 * abs_tol, breakpoints=ybreaks,
                               inner_rel_tol=0.0,
                               inner_abs_tol=0.1 * abs_tol / span)
        miss = err > abs_tol
        if miss.any():
            raise NonConvergentError(
                "%d of %d cross masses missed their tolerance: the worst "
                "reached %.3g times it"
                % (int(miss.sum()), n, float(np.max(err / abs_tol))))
        return val


class _WallTable(_WallIntegrals):
    """_WallIntegrals with H tabulated on [0, min(R, side)], every wall
    distance of the square, as piecewise Chebyshev series: pieces start
    between the _table_radii and are bisected until each matches direct
    integrals at its check points to _TABLE_BUDGET * C_R.  `error` is the
    largest miss reached, as a share of C_R; NonConvergentError says when
    the budget cannot be met.  The table depends on (g, side) alone.
    """

    def __init__(self, g, side):
        super().__init__(g, side)
        top = min(self.R, side)
        budget = _TABLE_BUDGET * self.C
        edges = np.concatenate([[0.0], self.radii[self.radii < top], [top]])
        lo, hi = edges[:-1][edges[1:] > 0.0], edges[1:][edges[1:] > 0.0]
        most = 4 * lo.size + 64
        los, coefs = [np.empty(0)], [np.empty((0, _TABLE_DEGREE + 1))]
        self.error = 0.0
        nodes = np.concatenate([_CHEB_NODES, _CHEB_CHECKS])
        for _ in range(_TABLE_ROUNDS):
            if not lo.size:
                break
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            t = (mid[:, None] + half[:, None] * nodes).ravel()
            vals = self._wall_direct(t, 1e-3 * budget).reshape(lo.size, -1)
            coef = vals[:, :_TABLE_DEGREE + 1] @ _CHEB_FIT.T
            miss = np.abs(coef @ _CHEB_AT_CHECKS.T
                          - vals[:, _TABLE_DEGREE + 1:]).max(axis=1)
            ok = miss <= budget
            los.append(lo[ok])
            coefs.append(coef[ok])
            self.error = max(self.error, float(miss[ok].max(initial=0.0)))
            lo, hi = (np.concatenate([lo[~ok], mid[~ok]]),
                      np.concatenate([mid[~ok], hi[~ok]]))
            if lo.size > most:
                break
        if lo.size:
            raise NonConvergentError(
                "wall table of %s reached error %.3g of C, wanted %.3g (does g "
                "jump at a radius it does not declare?)"
                % (g.name, float(miss.max()) / self.C, _TABLE_BUDGET))
        if self.C > 0.0:
            self.error /= self.C
        order = np.argsort(np.concatenate(los))
        self._lo = np.concatenate(los)[order]
        self._hi = np.append(self._lo[1:], top)
        self._coef_t = np.concatenate(coefs)[order].T.copy()
        self._top = top

    def walls(self, t):
        """H at every distance of the array t, from the table (Clenshaw)."""
        if not self._lo.size:
            return np.zeros_like(t)
        tc = np.clip(t, 0.0, self._top)
        i = np.maximum(np.searchsorted(self._lo, tc, side="right") - 1, 0)
        lo, hi = self._lo[i], self._hi[i]
        x = (2.0 * tc - lo - hi) / (hi - lo)
        b1 = b2 = np.zeros_like(x)
        for c in self._coef_t[:0:-1]:
            b1, b2 = 2.0 * x * b1 - b2 + c[i], b1
        val = x * b1 - b2 + self._coef_t[0][i]
        return np.where(t >= self.R, 0.0, val)


class _DiskExposure:
    """The exposure model of a hard disk of radius r on one square:
    |disk(y, r) & A| and the xi_2 cross masses, closed forms from
    geometry."""

    error = 0.0     # no table

    def __init__(self, g, side, r):
        self.g, self.side, self.r = g, side, r

    def exposure(self, d, rel_tol):
        """I / lambda at each column of d, the (4, m) wall distances."""
        val = np.empty(d.shape[1])
        for lo in range(0, val.size, _EXPOSURE_BLOCK):
            val[lo:lo + _EXPOSURE_BLOCK] = _disk_overlap_batch(
                d[:, lo:lo + _EXPOSURE_BLOCK], self.r)
        return val

    def cross(self, x1, x2, abs_tol):
        """The cross masses, closed forms: abs_tol is not needed."""
        return _disk_cross_batch(x1, x2, self.r, 0.5 * self.side)


def _exposure_model(g, side, direct=False):
    """The one exposure model of g on a square of this side.

    A hard disk (possibly rescaled) gets its closed form.  Any other g gets
    the wall table, or with direct the plain H and Q integrals: a solve
    that reads one point (a torus E(W) on its own, inner_exposure) would
    spend far more on a table than its lookups save.
    """
    r = _disk_radius(g)
    if r is not None:
        return _DiskExposure(g, side, r)
    return _WallIntegrals(g, side) if direct else _WallTable(g, side)


def _exposure(model, ax, ay, lam, rel_tol=1e-8):
    """lambda * integral over the model's square of g(|x - y|) dx at every
    point of the broadcast centred coordinate arrays ax, ay, from its wall
    distances; a float for scalar coordinates."""
    ax, ay = np.broadcast_arrays(np.asarray(ax, dtype=float),
                                 np.asarray(ay, dtype=float))
    shape = ax.shape
    ax, ay = ax.ravel(), ay.ravel()
    side = model.side
    h = 0.5 * side
    if (np.any(np.abs(ax) - h > 1e-12 * side)
            or np.any(np.abs(ay) - h > 1e-12 * side)):
        raise ValueError("exposure point lies outside the square")
    val = model.exposure(np.stack([h - ax, h + ax, h - ay, h + ay]), rel_tol)
    out = lam * val.reshape(shape)
    return float(out) if out.ndim == 0 else out


def inner_exposure(y, spec, rel_tol=1e-8):
    """Exposure I(y) for a point of the model's square (core for window)."""
    spec, d, g = _frame(spec)
    y = np.asarray(y, dtype=float)
    return _exposure(_exposure_model(g, d.core_side, direct=True),
                     float(y[0]), float(y[1]), d.density, rel_tol)


def _region_integral(lam, model, u0, u1, vlo, vhi, rel_tol, inner_tol):
    """lambda * integral of exp(-I) over each region k of
    {u0_k <= u <= u1_k, vlo(u, k) <= v <= vhi(u, k)}; a length-n array.

    u and v are the distances to the right and top walls, so the point's
    wall distances are (u, side - u, v, side - v) and the near walls carry
    no rounding of the side.  One nested_quad for all n regions; both
    levels split where a structural radius of g reaches a wall, at rad and
    side - rad.  The radii include g's cutoff at tail mass 1e-12: farther
    than that from every wall, exp(-I) is constant to 1e-12 of g's mass.
    """
    g, side = model.g, model.side
    upto = side * math.sqrt(2.0)
    radii = set(_structural_radii(g, upto))
    cut = effective_cutoff(g, 1e-12)
    if cut < upto:
        radii.add(cut)
    kinks = [k for rad in sorted(radii) for k in (rad, side - rad)]

    def inner(us, k):
        return vlo(us, k), vhi(us, k), kinks

    def f(vs, us, k):
        us = np.broadcast_to(us, vs.shape)
        d = np.stack([us, side - us, vs, side - vs]).reshape(4, -1)
        return np.exp(-lam * model.exposure(d, inner_tol)).reshape(vs.shape)

    n = np.broadcast(u0, u1).size
    val, _ = nested_quad(f, u0, u1, inner, rel_tol=rel_tol / 2.0,
                         breakpoints=np.broadcast_to(kinks, (n, len(kinks))),
                         inner_rel_tol=rel_tol / 4.0, limit=400)
    return lam * val


def _inner_tol(rel_tol):
    """Exposure tolerance inside an E(W) solve of tolerance rel_tol."""
    return min(1e-8, rel_tol * 1e-2)


def _square_ew(d, model, rel_tol):
    h = 0.5 * model.side
    val = _region_integral(d.density, model, 0.0, h, lambda u, k: u,
                           lambda u, k: h, rel_tol, _inner_tol(rel_tol))
    return 8.0 * float(val[0])


def _torus_ew(d, model, rel_tol):
    """rho * exp(-I) at the square's centre."""
    i0 = _exposure(model, 0.0, 0.0, d.density, rel_tol)
    return d.lam * model.side ** 2 * math.exp(-i0)


def expected_isolated_square(spec, rel_tol=1e-6):
    """E(W) for the square frame: integral of lambda * exp(-I(y)) over A,
    eight copies of the fundamental triangle {0 <= y <= x <= side/2}."""
    _check_rel_tol(rel_tol)
    spec, d, g = _frame(spec)
    return _square_ew(d, _exposure_model(g, d.core_side), rel_tol)


def expected_isolated_torus(spec, rel_tol=1e-9):
    """E(W) for the torus frame: rho * exp(-lambda * integral_A g(|x|) dx).

    On the torus every point sees the same exposure, so the exposure of
    the square's center settles it.
    """
    _check_rel_tol(rel_tol)
    spec, d, g = _frame(spec)
    return _torus_ew(d, _exposure_model(g, d.core_side, direct=True),
                     rel_tol)


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

    inner_tol = _inner_tol(rel_tol)
    model = _exposure_model(g, side)
    ew = _square_ew(d, model, rel_tol)
    ew_t = _torus_ew(d, model, min(rel_tol, 1e-9))
    ew_inf = expected_isolated_infinite(spec.b)

    # one _region_integral over three regions of the fundamental triangle
    # {0 <= u <= v <= h}, split at wall distance margin: the central
    # triangle (8 copies), a side strip (8) and a corner square (4)
    h = 0.5 * side
    val = _region_integral(
        lam, model, [margin, 0.0, 0.0], [h, margin, margin],
        lambda u, k: np.where(k == 0, u, np.where(k == 1, margin, 0.0)),
        lambda u, k: np.where(k == 2, margin, h), rel_tol, inner_tol)
    central, side_term, corner = (np.array([8.0, 8.0, 4.0]) * val).tolist()

    total = central + side_term + corner
    resid = abs(total - ew) / max(abs(ew), 1e-300)
    return IsolationIntegrals(
        EW=ew, EW_torus=ew_t, EW_infinite=ew_inf, ratio=ew / ew_inf,
        central=central, side=side_term, corner=corner,
        margin=margin, eps=eps,
        tolerances={"rel_tol": rel_tol, "inner_tol": inner_tol,
                    "decomposition_residual": resid,
                    "exposure_table_error": model.error})


def _disk_radius(g):
    """Radius when g is a (possibly rescaled) hard disk, else None."""
    if g.kind == "unit_disk":
        return g.params["r0"]
    if g.kind == "scaled":
        base = _disk_radius(g.params["base"])
        return None if base is None else base * g.params["factor"]
    return None


# Equal cells across the wall band, per axis, of the x1 envelope.
_ENVELOPE_CELLS = 16


def _envelope_draw(rng, n, model, lam, band):
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
    h = 0.5 * model.side
    edges = np.concatenate([[0.0],
                            np.linspace(h - band, h, _ENVELOPE_CELLS + 1)])
    width = np.diff(edges)
    cx, cy = np.meshgrid(edges[1:], edges[1:], indexing="ij")
    value = np.exp(-_exposure(model, cx, cy, lam, 1e-8)).ravel()
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
    exactly 0 only for a g of zero mass.  Walls are modelled for the square
    and its rescalings (dense, extended) only: a torus or window spec raises
    ValueError, as its exposures and cross masses differ.
    """
    if spec.model in ("torus", "window"):
        raise ValueError("xi_2 is computed for the square frame and its "
                         "rescalings only, got %r" % (spec.model,))
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

    # Monotone piecewise-constant envelope for the radial density ~ r g(r).
    K = 512
    edges = np.linspace(0.0, r_t, K + 1)
    gle = np.asarray(g._eval(edges[:-1]), dtype=float)
    mass = gle * 0.5 * (edges[1:] ** 2 - edges[:-1] ** 2)
    total_mass = float(mass.sum())
    if total_mass <= 0.0:
        return 0.0, 0.0
    cdf = np.cumsum(mass) / total_mass
    model = _exposure_model(g, side)

    n = int(samples)
    if mode == "importance":
        # the envelope's wall band: g's reach at tail mass 1e-12
        band = min(effective_cutoff(g, 1e-12), h)
        x1, inv_density = _envelope_draw(rng, n, model, lam, band)
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
    z1, z2 = _exposure(model, both[..., 0], both[..., 1], lam, 1e-8) / lam
    cross = model.cross(p1, p2, _CROSS_WEIGHT_TOL / lam)
    decay = np.exp(-lam * (z1 + z2 - cross))
    w = np.zeros(n)
    w[keep] = (inv_density * z1 * decay if mode == "importance"
               else area * area * gd[keep] * decay)

    scale = 0.5 * lam * lam
    # one sample carries no spread: the error is unknown, not zero
    se = float(w.std(ddof=1)) / math.sqrt(n) if n > 1 else math.nan
    return scale * float(w.mean()), scale * se
