"""Distances, regions, and disk-difference areas.

Coordinates live in axis-aligned squares centered at the origin.  Torus
regions identify opposite sides; all points are expected to lie in the
fundamental domain [-side/2, side/2]^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quadcore import adaptive_quad


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

    def contains(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        h = 0.5 * self.side
        ok = (np.abs(p[:, 0]) <= h) & (np.abs(p[:, 1]) <= h)
        return ok if ok.size > 1 else bool(ok[0])

    def distance(self, p, q):
        if self.kind == "torus":
            return toroidal_distance(p, q, self.side)
        return euclidean_distance(p, q)


def euclidean_distance(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = p - q
    return np.hypot(d[..., 0], d[..., 1])


def minimum_image(d, side):
    """Coordinate difference d shifted by the multiple of side that brings
    it into [-side/2, side/2]: its shortest representative on the torus."""
    return d - side * np.round(d / side)


def toroidal_distance(p, q, side):
    """Shortest distance on the side-length torus; exact for points
    confined to the fundamental domain."""
    d = minimum_image(np.asarray(p, dtype=float) - np.asarray(q, dtype=float),
                      side)
    return np.hypot(d[..., 0], d[..., 1])


def lens_difference_area(z, r):
    """Area of D(x2, r) \\ D(x1, r) for centers a distance z apart.

    Equals pi r^2 - 2 r^2 arcsin(sqrt(1 - z^2/(4 r^2))) + z r sqrt(1 - z^2/(4 r^2))
    for z < 2r and the full disk area beyond.  Increases from 0 at z = 0 to
    pi r^2 at z = 2r and satisfies area >= sqrt(3) r z for z <= r.
    """
    z = np.asarray(z, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(z < 0.0) or np.any(r <= 0.0):
        raise ValueError("need z >= 0 and r > 0")
    full = math.pi * r * r
    s2 = np.clip(1.0 - z * z / (4.0 * r * r), 0.0, 1.0)
    s = np.sqrt(s2)
    val = full - 2.0 * r * r * np.arcsin(s) + z * r * s
    out = np.where(z >= 2.0 * r, full, val)
    return float(out) if out.shape == () else out


def lens_difference_derivative(z, r):
    """d/dz of lens_difference_area: 2 r sqrt(1 - z^2/(4 r^2)) on [0, 2r)."""
    z = np.asarray(z, dtype=float)
    s2 = np.clip(1.0 - z * z / (4.0 * r * r), 0.0, 1.0)
    out = np.where(z >= 2.0 * r, 0.0, 2.0 * r * np.sqrt(s2))
    return float(out) if out.shape == () else out


def _interval_minus_length(a, b, c, d):
    """Length of [a, b] minus its overlap with [c, d] (all vectorized)."""
    base = np.maximum(b - a, 0.0)
    ov = np.maximum(np.minimum(b, d) - np.maximum(a, c), 0.0)
    return base - ov


def clipped_lens_difference_area(x1, x2, r, region, abs_tol=1e-8):
    """Area of {p in A : |p - x1| <= r, |p - x2| > r} for a square region A.

    Row-sliced: at each height y the set is an interval difference with
    exact endpoints, integrated over y by adaptive quadrature.
    """
    if region.kind != "square":
        raise ValueError("clipped lens areas are defined on square regions")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    h = 0.5 * region.side

    ylo = max(-h, x1[1] - r)
    yhi = min(h, x1[1] + r)
    if yhi <= ylo:
        return 0.0

    def width(y):
        y = np.asarray(y, dtype=float)
        w1 = np.sqrt(np.clip(r * r - (y - x1[1]) ** 2, 0.0, None))
        a = np.maximum(x1[0] - w1, -h)
        b = np.minimum(x1[0] + w1, h)
        w2sq = r * r - (y - x2[1]) ** 2
        w2 = np.sqrt(np.clip(w2sq, 0.0, None))
        c = np.where(w2sq >= 0.0, x2[0] - w2, np.inf)
        d = np.where(w2sq >= 0.0, x2[0] + w2, np.inf)
        return _interval_minus_length(a, b, c, d)

    # Slope changes happen where either circle starts/ends in y.
    breaks = [x2[1] - r, x2[1] + r, x1[1], x2[1]]
    val, _ = adaptive_quad(width, ylo, yhi, rel_tol=1e-10, abs_tol=abs_tol,
                           breakpoints=breaks)
    return val
