"""Adaptive panel quadrature used across the package.

Gauss-Kronrod 7/15 on each panel (the QUADPACK rule and error estimate),
explicit breakpoint splitting so discontinuities and kinks always land on
panel edges.  batched_quad is the one refinement loop: it integrates many
independent integrals at once, bisects every panel carrying a fair share
of its integral's error, and calls the integrand once per block of panels
on all their nodes.  adaptive_quad is its face for one integral of f(x).
nested_quad is batched_quad at two levels: n integrals of inner integrals,
whose outer integrand gathers every node of every outer panel of every
integral and integrates their inner integrals in array calls of bounded
size.  fixed_tensor_quad, a doubling tensor Gauss-Legendre rule for smooth
2-D patches, has no caller left in the package.
"""

import functools
import math

import numpy as np

# 15-point Kronrod nodes on [-1, 1] and weights, with the embedded 7-point
# Gauss rule on the odd-indexed nodes.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


# Panels per integrand call.  A call holds the (panels x 15) nodes, values
# and the integrand's own temporaries, about ten float64 arrays of 120 bytes
# per panel: 1024 panels keep a call near 1 MB however many panels a round
# refines.  Unblocked, the first round of a 512-point exposure pass (about
# 19 000 panels) lifts the traced peak of 20 000 lognormal exposures from
# 3.0 to 5.2 MB.
_PANEL_BLOCK = 1024


def _panels_eval(f, los, his, owner):
    """GK15 on a batch of panels; returns (vals, errs).

    f(x, k) gets the nodes x, shape (m, 15), and the owner index k, shape
    (m, 1), of at most _PANEL_BLOCK panels per call.
    """
    vals = np.empty(los.size)
    errs = np.empty(los.size)
    for lo in range(0, los.size, _PANEL_BLOCK):
        blk = slice(lo, lo + _PANEL_BLOCK)
        width = his[blk] - los[blk]
        h = 0.5 * width
        c = 0.5 * (his[blk] + los[blk])
        xs = c[:, None] + h[:, None] * _XK[None, :]
        fx = np.asarray(f(xs, owner[blk, None]), dtype=float).reshape(xs.shape)
        ik = h * (fx @ _WK)
        ig = h * (fx[:, _GAUSS_IDX] @ _WG)
        # batched_quad's panels all have positive width
        resasc = np.abs(h) * (np.abs(fx - (ik / width)[:, None]) @ _WK)
        diff = np.abs(ik - ig)
        safe_asc = np.where(resasc > 0.0, resasc, 1.0)
        vals[blk] = ik
        errs[blk] = np.where(
            (resasc > 0.0) & (diff > 0.0),
            resasc * np.minimum(1.0, (200.0 * diff / safe_asc) ** 1.5), diff)
    return vals, errs


def batched_quad(f, a, b, rel_tol=1e-10, abs_tol=0.0, breakpoints=(),
                 limit=4000):
    """Integrate n independent integrals in vectorized rounds.

    a and b broadcast to length n.  f(x, k) gets the nodes x, shape (m, 15),
    and the index k, shape (m, 1), of the integral each row belongs to;
    breakpoints is an (n, K) table padded with NaN.  Returns (value, error),
    length-n arrays.

    Each round bisects, integral by integral, every panel holding a
    meaningful share of that integral's error, and evaluates all children
    of all integrals together.  An integral stops refining once
    sum(err) <= max(abs_tol, rel_tol * |sum(value)|) or it has limit panels.
    """
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                               np.atleast_1d(np.asarray(b, dtype=float)))
    n = a.size
    brk = np.asarray(breakpoints, dtype=float)
    brk = brk.reshape(n, -1) if brk.size else np.empty((n, 0))

    # Panel edges of each integral: a, its distinct breakpoints strictly
    # inside (a, b), then b; NaN marks unused slots.
    live = b > a
    lo, hi = a[live, None], b[live, None]
    pts = np.concatenate(
        [lo, np.where((brk[live] > lo) & (brk[live] < hi), brk[live], np.nan),
         hi], axis=1)
    pts.sort(axis=1)
    used = ~np.isnan(pts)
    used[:, 1:] &= pts[:, 1:] != pts[:, :-1]
    edge = pts[used]
    owner = np.broadcast_to(np.nonzero(live)[0][:, None], pts.shape)[used]
    inner = owner[:-1] == owner[1:]
    los, his, owner = edge[:-1][inner], edge[1:][inner], owner[:-1][inner]
    vals, errs = _panels_eval(f, los, his, owner)

    while True:
        total = np.bincount(owner, vals, n)
        total_err = np.bincount(owner, errs, n)
        count = np.bincount(owner, minlength=n)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        open_ = (total_err > tol) & (count < limit)
        floor = 16.0 * np.spacing(np.maximum(np.maximum(np.abs(los),
                                                        np.abs(his)), 1.0))
        can = open_[owner] & ((his - los) > floor)
        emax = np.zeros(n)
        np.maximum.at(emax, owner[can], errs[can])
        split = can & (emax[owner] > 0.0) & (
            (errs >= 0.25 * emax[owner])
            | (errs > tol[owner] / count[owner]))
        if not split.any():
            break
        mids = 0.5 * (los[split] + his[split])
        child_lo = np.concatenate([los[split], mids])
        child_hi = np.concatenate([mids, his[split]])
        child_own = np.concatenate([owner[split], owner[split]])
        cv, ce = _panels_eval(f, child_lo, child_hi, child_own)
        keep = ~split
        los = np.concatenate([los[keep], child_lo])
        his = np.concatenate([his[keep], child_hi])
        owner = np.concatenate([owner[keep], child_own])
        vals = np.concatenate([vals[keep], cv])
        errs = np.concatenate([errs[keep], ce])
    return total, total_err


def adaptive_quad(f, a, b, rel_tol=1e-10, abs_tol=0.0, breakpoints=(),
                  limit=4000):
    """Integrate f over [a, b], splitting at the given breakpoints.

    batched_quad with one integral: f(x) takes a 1-D array of nodes and
    breakpoints is a sequence.  Returns (value, error_estimate), floats.
    """
    val, err = batched_quad(lambda x, k: f(x.ravel()), a, b, rel_tol, abs_tol,
                            [float(p) for p in breakpoints], limit)
    return float(val[0]), float(err[0])


# Outer nodes per inner array call of nested_quad.  An inner call keeps
# every panel of every node's integral alive until it returns (five
# float64 arrays per panel) plus the nodes' breakpoint table.  With
# 2048-node calls the cross masses of 600 lognormal pairs (rho 1e2) peak
# at 4.3 MB traced; one call per outer block (up to 15 360 nodes) takes
# 21 MB.  512-node calls peak at 2.9 MB but make four times as many calls.
_NODE_BLOCK = 2048


def nested_quad(f, a, b, inner, rel_tol=1e-10, abs_tol=0.0, breakpoints=(),
                inner_rel_tol=1e-10, inner_abs_tol=0.0, limit=4000):
    """Integrate n two-level integrals at once; returns (value, error).

    Integral k is  int_{a_k}^{b_k} ds int_{lo_k(s)}^{hi_k(s)} f(t, s, k) dt.
    inner(s, k) maps outer nodes s of integrals k (flat arrays of equal
    length m) to (lo, hi, brk): the inner bounds, broadcast to length m,
    and the inner breakpoints, an (m, K) NaN-padded table or one (K,) row
    for all nodes.  f(t, s, k) gets the inner nodes t, shape (r, 15), and
    the outer node s and integral k of each row, shape (r, 1).

    The outer level is one array batched_quad over the n integrals (a, b
    and breakpoints as there, limit its panel limit); its integrand takes
    every node of every outer panel and integrates their inner integrals in
    array batched_quad calls of at most _NODE_BLOCK nodes, each to
    max(inner_abs_tol, inner_rel_tol * |value|) with batched_quad's default
    panel limit.  The error returned is the outer level's estimate; value
    and error are length-n arrays.
    """
    def outer(s, k):
        s_all = s.ravel()
        k_all = np.broadcast_to(k, s.shape).ravel()
        out = np.empty(s_all.size)
        for lo in range(0, s_all.size, _NODE_BLOCK):
            sb = s_all[lo:lo + _NODE_BLOCK]
            kb = k_all[lo:lo + _NODE_BLOCK]
            t0, t1, brk = inner(sb, kb)
            brk = np.atleast_2d(np.asarray(brk, dtype=float))

            def fn(t, j):
                return f(t, sb[j], kb[j])

            out[lo:lo + _NODE_BLOCK], _ = batched_quad(
                fn, np.broadcast_to(t0, sb.shape),
                np.broadcast_to(t1, sb.shape), rel_tol=inner_rel_tol,
                abs_tol=inner_abs_tol,
                breakpoints=np.broadcast_to(brk, (sb.size, brk.shape[1])))
        return out.reshape(s.shape)

    return batched_quad(outer, a, b, rel_tol=rel_tol, abs_tol=abs_tol,
                        breakpoints=breakpoints, limit=limit)


@functools.lru_cache(maxsize=16)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: an
    eigenvalue solve that takes about 0.5 s at n = 256, made once per n."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


# Unused by the package; kept because perfbench's tracer wraps it by name.
def fixed_tensor_quad(f2, ax, bx, ay, by, rel_tol=1e-9, n0=16, max_n=256,
                      xbreaks=(), ybreaks=()):
    """Tensor Gauss-Legendre quadrature of f2(x, y) over a rectangle.

    Doubles the per-axis node count, the last step capped at max_n, until
    two successive refinements agree to rel_tol.  Axis breakpoints split
    the rectangle into sub-cells so the integrand is smooth inside each
    cell.  f2 must broadcast over arrays.
    """
    def cells(lo, hi, brks):
        pts = [lo] + [p for p in sorted(set(brks)) if lo < p < hi] + [hi]
        return list(zip(pts[:-1], pts[1:]))

    xcells = cells(ax, bx, xbreaks)
    ycells = cells(ay, by, ybreaks)

    prev = None
    n = n0
    while True:
        xg, wg = _leggauss(n)
        total = 0.0
        for (x0, x1) in xcells:
            hx = 0.5 * (x1 - x0)
            xs = 0.5 * (x0 + x1) + hx * xg
            for (y0, y1) in ycells:
                hy = 0.5 * (y1 - y0)
                ys = 0.5 * (y0 + y1) + hy * xg
                vals = f2(xs[:, None], ys[None, :])
                total += hx * hy * float(wg @ vals @ wg)
        if prev is not None and abs(total - prev) <= rel_tol * max(abs(total), 1e-300):
            return total, abs(total - prev)
        if n >= max_n:
            return total, abs(total - prev) if prev is not None else math.inf
        prev = total
        n = min(2 * n, max_n)
