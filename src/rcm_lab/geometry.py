"""Distances, regions, and disk areas clipped to a square.

Coordinates live in axis-aligned squares centered at the origin.  Torus
regions identify opposite sides; all points are expected to lie in the
fundamental domain [-side/2, side/2]^2.  Every pair distance comes from
gap_distance over coordinate gaps.

Every area here is closed form: the free lens, one disk and the square
(four quadrant pieces, from the centre's wall distances), and two equal
disks and the square, whose slice width is integrated exactly piece by
piece between the heights where an arc or a wall takes over as its left or
right end.  Only the live pieces, those of positive height, are evaluated.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Region:
    """A square window, optionally with periodic identification."""
    kind: str          # "square" or "torus"
    side: float

    def __post_init__(self):
        if self.kind not in ("square", "torus"):
            raise ValueError("region kind must be 'square' or 'torus'")
        if not (self.side > 0.0 and math.isfinite(self.side)):
            raise ValueError("region side must be positive and finite")

    @property
    def area(self):
        return self.side * self.side

    @property
    def period(self):
        """The side on a torus, where gaps wrap; None on a square."""
        return self.side if self.kind == "torus" else None

    def contains(self, points):
        """A bool for one point (x, y), a bool array for an (n, 2) array."""
        p = np.asarray(points, dtype=float)
        h = 0.5 * self.side
        ok = (np.abs(p[..., 0]) <= h) & (np.abs(p[..., 1]) <= h)
        return ok if p.ndim > 1 else bool(ok)

    def distance(self, p, q):
        d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
        return gap_distance(d[..., 0], d[..., 1], self.period)


def min_image(d, side):
    """The gap d shifted by the multiple of side that brings it into
    [-side/2, side/2]: its minimum image on the side-length torus.  Odd in
    d, so min_image(-d) is -min_image(d) to the bit."""
    return d - side * np.round(d / side)


def gap_distance(dx, dy, side=None):
    """Distance from coordinate gaps dx, dy.  With a side (the torus) each
    gap is first taken to its minimum image."""
    if side is not None:
        dx, dy = min_image(dx, side), min_image(dy, side)
    return np.hypot(dx, dy)


def toroidal_distance(p, q, side):
    """Shortest distance on the side-length torus; exact for points
    confined to the fundamental domain."""
    d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    return gap_distance(d[..., 0], d[..., 1], side)


def _check_lens(z, r):
    """Raise ValueError naming z or r unless z >= 0 and r > 0 (NaN fails)."""
    if not np.all(z >= 0.0):
        raise ValueError("z must be >= 0, got %r" % (z,))
    if not np.all(r > 0.0):
        raise ValueError("r must be > 0, got %r" % (r,))


def lens_difference_area(z, r):
    """Area of D(x2, r) \\ D(x1, r) for centers a distance z apart.

    Equals pi r^2 - 2 r^2 arcsin(sqrt(1 - z^2/(4 r^2))) + z r sqrt(1 - z^2/(4 r^2))
    for z < 2r and the full disk area beyond.  Increases from 0 at z = 0 to
    pi r^2 at z = 2r and satisfies area >= sqrt(3) r z for z <= r.
    """
    z = np.asarray(z, dtype=float)
    r = np.asarray(r, dtype=float)
    _check_lens(z, r)
    full = math.pi * r * r
    s2 = np.clip(1.0 - z * z / (4.0 * r * r), 0.0, 1.0)
    s = np.sqrt(s2)
    val = full - 2.0 * r * r * np.arcsin(s) + z * r * s
    out = np.where(z >= 2.0 * r, full, val)
    return float(out) if out.shape == () else out


def lens_difference_derivative(z, r):
    """d/dz of lens_difference_area: 2 r sqrt(1 - z^2/(4 r^2)) on [0, 2r)."""
    z = np.asarray(z, dtype=float)
    _check_lens(z, r)
    s2 = np.clip(1.0 - z * z / (4.0 * r * r), 0.0, 1.0)
    out = np.where(z >= 2.0 * r, 0.0, 2.0 * r * np.sqrt(s2))
    return float(out) if out.shape == () else out


def _arc_antiderivative(t, r):
    """Antiderivative of sqrt(r^2 - u^2) at u = t, for |t| <= r.

    Both terms take the same q = sqrt(r^2 - t^2), so the rounding of q
    cancels between them to first order; arcsin(t / r) would lose about
    r^2 * eps / q to rounding as t nears r.
    """
    q = np.sqrt(np.maximum(r * r - t * t, 0.0))
    return 0.5 * (r * r * np.arctan2(t, q) + t * q)


def _disk_overlap_batch(d, r):
    """Area of a square and disk(p, r) for every column of d: the
    distances from p to the walls (right, left, top, bottom).

    Sum of the four quadrants around p, each |[0, a] x [0, b] & D(0, r)|
    for wall distances a, b clipped to [0, r]: the rectangle b * u0 up to
    u0 = min(a, sqrt(r^2 - b^2)), where the arc rises above height b, and
    the arc beyond it.  Every piece is nonnegative, so a disk that covers
    the square gives its area without cancellation.
    """
    d = np.asarray(d, dtype=float)
    area = 0.0
    for a, b in ((d[0], d[2]), (d[1], d[2]), (d[1], d[3]), (d[0], d[3])):
        a, b = np.clip(a, 0.0, r), np.clip(b, 0.0, r)
        u0 = np.minimum(a, np.sqrt(r * r - b * b))
        area = area + (u0 * b + _arc_antiderivative(a, r)
                       - _arc_antiderivative(u0, r))
    return area


# Pairs per _disk_cross_batch block.  A block keeps its (block x 12)
# breakpoints and a few dozen arrays over its live panels (about 3.5 of
# the 11 per pair) alive: 1024-pair blocks peak near 1.5 MB traced for any
# number of pairs, 4096-pair blocks at 5.5 MB, at about the same speed,
# and one slower block of 20 000 pairs at 26 MB.
_CROSS_BLOCK = 1024


def _disk_cross_batch(x1, x2, r, h):
    """Area of [-h, h]^2 and both disks of radius r around rows x1, x2.

    At height y the common set is the interval [max of the left ends,
    min of the right ends]; each end is an arc x_c -+ sqrt(r^2 - (y -
    y_c)^2) or a wall -+h.  The active ends can only change, and the
    width can only cross zero, where the two circles meet or where a
    circle meets a wall, so between those heights every panel integrates
    in closed form with the active arc or wall picked at its midpoint.
    Only live panels, those of positive height, are evaluated; each pair
    then adds its panel widths in panel order.  Exact for any centres; 0
    where the disks or their slices are disjoint.
    """
    x1 = np.asarray(x1, dtype=float).reshape(-1, 2)
    x2 = np.asarray(x2, dtype=float).reshape(-1, 2)
    out = np.zeros(x1.shape[0])
    for lo in range(0, x1.shape[0], _CROSS_BLOCK):
        out[lo:lo + _CROSS_BLOCK] = _disk_cross_block(
            x1[lo:lo + _CROSS_BLOCK], x2[lo:lo + _CROSS_BLOCK], r, h)
    return out


def _disk_cross_block(p1, p2, r, h):
    cx = np.stack([p1[:, 0], p2[:, 0]], axis=1)             # (n, 2)
    cy = np.stack([p1[:, 1], p2[:, 1]], axis=1)
    ylo = np.maximum(cy.max(axis=1) - r, -h)
    yhi = np.minimum(cy.min(axis=1) + r, h)
    with np.errstate(invalid="ignore"):
        # where the circles meet: the chord midpoint +- half-chord along
        # the normal of the centre line (none for coincident centres)
        dx, dy = p2[:, 0] - p1[:, 0], p2[:, 1] - p1[:, 1]
        z = np.hypot(dx, dy)
        half = np.sqrt(r * r - 0.25 * z * z) * dx / z
        mid = 0.5 * (p1[:, 1] + p2[:, 1])
        # where each circle meets each wall x = +-h
        reach = np.sqrt(r * r - (np.stack([h - cx, h + cx], axis=2)) ** 2)
    wall = np.concatenate([cy[:, :, None] - reach, cy[:, :, None] + reach],
                          axis=2).reshape(-1, 8)
    brk = np.concatenate([ylo[:, None], yhi[:, None], (mid - half)[:, None],
                          (mid + half)[:, None], wall], axis=1)
    brk = np.where((brk >= ylo[:, None]) & (brk <= yhi[:, None]), brk, np.nan)
    brk.sort(axis=1)
    # only live panels are evaluated: k is the pair, j the panel, and a NaN
    # end compares False
    k, j = np.nonzero(brk[:, 1:] > brk[:, :-1])
    a, b = brk[k, j], brk[k, j + 1]
    m = 0.5 * (a + b)
    c, yc = cx[k], cy[k]                                    # (K, 2)

    # half-widths of both arcs at the midpoints, and each arc's exact
    # integral of sqrt(r^2 - (y - y_c)^2) over the panel
    dm = m[:, None] - yc
    s = np.sqrt(np.maximum(r * r - dm * dm, 0.0))
    arc = (_arc_antiderivative(b[:, None] - yc, r)
           - _arc_antiderivative(a[:, None] - yc, r))
    span = (b - a)[:, None]
    left = np.concatenate([c - s, np.full_like(span, -h)], axis=1)
    right = np.concatenate([c + s, np.full_like(span, h)], axis=1)
    left_int = np.concatenate([c * span - arc, -h * span], axis=1)
    right_int = np.concatenate([c * span + arc, h * span], axis=1)
    rows = np.arange(k.size)
    il, ir = left.argmax(axis=1), right.argmin(axis=1)
    width = right_int[rows, ir] - left_int[rows, il]
    open_ = right[rows, ir] > left[rows, il]
    # each row adds its 11 panels in order, dead ones as zeros, so a pair's
    # area does not depend on its batch; a per-pair bincount would reorder
    # the additions.  A nearly tangent pair's panel can round a few ulps
    # below zero while its midpoint still reads open, so the sum is
    # clamped at 0.
    panels = np.zeros((brk.shape[0], brk.shape[1] - 1))
    panels[k, j] = np.where(open_, width, 0.0)
    return np.maximum(panels.sum(axis=1), 0.0)


def clipped_lens_difference_area(x1, x2, r, region):
    """Area of {p in A : |p - x1| <= r, |p - x2| > r} for a square region A.

    Exact: |D(x1, r) & A| - |D(x1, r) & D(x2, r) & A|, both from the
    two-disk kernel.  x1, x2 are points or (n, 2) arrays of them (a float
    or a length-n array back); the centres may lie anywhere.
    """
    if region.kind != "square":
        raise ValueError("clipped lens areas are defined on square regions")
    _check_lens(0.0, r)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    h = 0.5 * region.side
    p1, p2 = np.broadcast_arrays(x1, x2)
    p1, p2 = p1.reshape(-1, 2), p2.reshape(-1, 2)
    out = _disk_cross_batch(p1, p1, r, h) - _disk_cross_batch(p1, p2, r, h)
    return float(out[0]) if x1.ndim == 1 and x2.ndim == 1 else out
