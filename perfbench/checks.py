"""Checks of rcm-lab outputs against computations made apart from it.

Nothing here calls the package's graph building, census, coupling or
quadrature.  Graphs are rebuilt with ``scipy.spatial.cKDTree``, components
come from ``scipy.sparse.csgraph``, and expectations from closed forms,
``scipy.integrate`` or grid sums.  Connection functions and the plane
constant C are re-derived here from their formulas.

Every check returns a list of problems; an empty list means it passed.
"""

import math

import numpy as np
from scipy import integrate, signal, special
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

NSIGMA = 4.0


# ---------------------------------------------------------------- graphs

def component_orders(n, edges):
    """{order: count} of the components of an n-node graph."""
    if n == 0:
        return {}
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    per_order = np.bincount(np.bincount(labels))
    return {k: int(c) for k, c in enumerate(per_order) if k and c}


def isolated(n, edges):
    deg = np.bincount(np.asarray(edges, dtype=np.int64).ravel(), minlength=n)
    return int(np.sum(deg == 0))


def disk_trial_counts(pos, side, r):
    """n, W_T, W, W_E and xi of a hard-disk torus trial.

    A hard disk links every pair within r, so the torus graph is the
    periodic near-pair set and its square coupling the plain one; no random
    draw enters.  xi is the census of the square graph, as in the records.
    """
    n = len(pos)
    wrapped = np.mod(pos + 0.5 * side, side)
    wrapped[wrapped >= side] = 0.0
    torus = cKDTree(wrapped, boxsize=side).query_pairs(r, output_type="ndarray")
    square = cKDTree(pos).query_pairs(r, output_type="ndarray")
    w_t = isolated(n, torus)
    w = isolated(n, square)
    return {"n": n, "W_T": w_t, "W": w, "W_E": w - w_t,
            "xi": component_orders(n, square)}


def record_counts(rec):
    return {"n": rec["n"], "W_T": rec["W_T"], "W": rec["W"],
            "W_E": rec["W_E"],
            "xi": {int(k): int(v) for k, v in rec["xi"].items()}}


def check_disk_record(rec, pos, side, r):
    want = disk_trial_counts(pos, side, r)
    got = record_counts(rec)
    if got != want:
        return [f"seed {rec['seed']}: record {got} != recomputed {want}"]
    return []


def check_record_identities(rec):
    """W = W_T + W_E, W_E >= 0, xi_1 = W and sum k xi_k = n."""
    out = []
    xi = {int(k): int(v) for k, v in rec["xi"].items()}
    if rec["W"] != rec["W_T"] + rec["W_E"]:
        out.append(f"seed {rec['seed']}: W != W_T + W_E")
    if rec["W_E"] < 0:
        out.append(f"seed {rec['seed']}: W_E < 0")
    if xi.get(1, 0) != rec["W"]:
        out.append(f"seed {rec['seed']}: xi_1 != W")
    if sum(k * c for k, c in xi.items()) != rec["n"]:
        out.append(f"seed {rec['seed']}: sum k xi_k != n")
    return out


def check_coupled_census(rec, n, torus_edges, square_edges):
    """A re-realized trial's record against scipy components on its edges."""
    got = record_counts(rec)
    w_t, w = isolated(n, torus_edges), isolated(n, square_edges)
    want = {"n": n, "W_T": w_t, "W": w, "W_E": w - w_t,
            "xi": component_orders(n, square_edges)}
    if got != want:
        return [f"seed {rec['seed']}: record {got} != scipy {want}"]
    return []


def check_mean(values, target, var, what):
    """Mean of values within NSIGMA standard errors of target.

    The standard error uses var when given (an exact variance), else the
    sample variance floored at target (the Poisson variance of a count).
    """
    v = np.asarray(values, dtype=float)
    k = v.size
    if var is None:
        var = max(float(v.var(ddof=1)) if k > 1 else 0.0, target)
    se = math.sqrt(var / k)
    z = (float(v.mean()) - target) / se
    if not abs(z) <= NSIGMA:
        return [f"{what}: mean {v.mean():.6g} vs {target:.6g} is "
                f"{z:+.2f} standard errors off"]
    return []


# ------------------------------------------------------ theta_tail torus

def theta_g(x, a, x0, g0):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.log(np.where(x > 1.0, x, 2.0))
        tail = a / (x * x * lx * lx)
    return np.where(x <= x0, g0, np.minimum(g0, tail))


def theta_constant(a, x0, g0):
    """C = 2 pi int_0^inf x g(x) dx; the tail in u = ln x, where x g dx
    becomes min(g0 e^{2u}, a / u^2) du."""
    tail, _ = integrate.quad(lambda u: min(g0 * math.exp(2.0 * u), a / (u * u)),
                             math.log(x0), math.inf, limit=200)
    return 2.0 * math.pi * (0.5 * g0 * x0 * x0 + tail)


def theta_torus_expectations(a, x0, g0, rho, b):
    """Edge-count mean and variance, and E W_T, on the torus frame.

    With I_T = lambda * integral of g(|z|) over the fundamental square: the
    expected edge count is rho I_T / 2, its variance rho I_T / 2 + rho I_T^2
    (Poisson points, independent edges), and E W_T = rho exp(-I_T).
    """
    C = theta_constant(a, x0, g0)
    lam = (math.log(rho) + b) / C
    h = 0.5 * math.sqrt(rho / lam)

    def ring(r):
        # g(r) times the length of the circle of radius r inside the square
        angle = 2.0 * math.pi
        if r > h:
            angle -= 8.0 * math.acos(h / r)
        return float(theta_g(r, a, x0, g0)) * r * angle

    g_mass = 0.0
    for lo, hi in ((0.0, x0), (x0, h), (h, h * math.sqrt(2.0))):
        val, _ = integrate.quad(ring, lo, hi, limit=200, epsabs=0.0,
                                epsrel=1e-12)
        g_mass += val
    i_t = lam * g_mass
    return {"I_T": i_t, "mean_edges": 0.5 * rho * i_t,
            "var_edges": 0.5 * rho * i_t + rho * i_t * i_t,
            "mean_W_T": rho * math.exp(-i_t)}


# ------------------------------------------------------ E(W), hard disk

def _below_left(a, b, r):
    """Area of {x <= a, y <= b} inside the origin-centred disk of radius r."""
    a = np.clip(a, -r, r)
    b = np.clip(b, -r, r)

    def s_int(t):      # integral_0^t sqrt(r^2 - x^2) dx
        return 0.5 * (t * np.sqrt(np.maximum(r * r - t * t, 0.0))
                      + r * r * np.arcsin(np.clip(t / r, -1.0, 1.0)))

    xb = np.sqrt(np.maximum(r * r - b * b, 0.0))
    hi = np.clip(a, -xb, xb)
    inner = s_int(hi) - s_int(-xb)
    length = hi + xb
    left = 2.0 * (s_int(a) + s_int(r))
    return np.where(b >= 0.0, left - inner + b * length, inner + b * length)


def disk_square_area(cx, cy, r, h):
    """Area of the disk of radius r at (cx, cy) inside [-h, h]^2."""
    x0, x1 = -h - cx, h - cx
    y0, y1 = -h - cy, h - cy
    return (_below_left(x1, y1, r) - _below_left(x0, y1, r)
            - _below_left(x1, y0, r) + _below_left(x0, y0, r))


def riemann_ew_disk(rho, b, r, cells):
    """Midpoint Riemann sum for E(W) on the square frame, hard disk g.

    Points farther than r from every wall see the whole disk, so that
    block is exact; the four wall strips (where the integrand depends on
    the wall distance alone) and the four r x r corner patches are summed
    at cells midpoints per unit r.
    """
    C = math.pi * r * r
    lam = (math.log(rho) + b) / C
    side = math.sqrt(rho / lam)
    h = 0.5 * side
    if not side > 2.0 * r:
        raise ValueError("the square must be wider than the disk")
    t = (np.arange(cells) + 0.5) * (r / cells)
    strip = float(np.exp(-lam * disk_square_area(h - t, 0.0, r, h)).sum())
    corner = 0.0
    for lo in range(0, cells, 256):
        t1 = t[lo:lo + 256, None]
        corner += float(np.exp(-lam * disk_square_area(h - t1, h - t[None, :],
                                                       r, h)).sum())
    step = r / cells
    core = (side - 2.0 * r) ** 2 * math.exp(-lam * C)
    return lam * (core + 4.0 * (side - 2.0 * r) * strip * step
                  + 4.0 * corner * step * step)


# ------------------------------------------------------ E(W), lognormal

def lognormal_g(x, sigma, eta, r0):
    k = 10.0 * eta / (sigma * math.sqrt(2.0))
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        t = np.log10(np.where(x > 0.0, x, 1.0) / r0)
    return np.where(x > 0.0, 0.5 * special.erfc(k * t), 1.0)


def lognormal_reach(sigma, eta, r0):
    """Radius past which g < 1e-17: erfc(6) / 2 ~ 1e-17."""
    k = 10.0 * eta / (sigma * math.sqrt(2.0))
    return r0 * 10.0 ** (6.0 / k)


def lognormal_constant(sigma, eta, r0):
    def xg(x):
        return x * float(lognormal_g(x, sigma, eta, r0))
    reach = lognormal_reach(sigma, eta, r0)
    head, _ = integrate.quad(xg, 0.0, r0, epsabs=0.0, epsrel=1e-12, limit=200)
    tail, _ = integrate.quad(xg, r0, reach, epsabs=0.0, epsrel=1e-12,
                             limit=200)
    return 2.0 * math.pi * (head + tail)


def grid_ew_lognormal(sigma, eta, r0, rho, b, cells):
    """E(W) on the square frame from a cells x cells midpoint grid.

    The exposure at every cell centre is lambda times the grid sum of g over
    the square, taken as one FFT convolution of the square's indicator with
    g sampled on the grid offsets out to the reach of g.
    """
    C = lognormal_constant(sigma, eta, r0)
    lam = (math.log(rho) + b) / C
    side = math.sqrt(rho / lam)
    step = side / cells
    m = int(math.ceil(lognormal_reach(sigma, eta, r0) / step))
    off = np.arange(-m, m + 1) * step
    kernel = lognormal_g(np.hypot(off[:, None], off[None, :]), sigma, eta, r0)
    mass = signal.fftconvolve(np.ones((cells, cells)), kernel, mode="same")
    exposure = lam * step * step * mass
    return lam * step * step * float(np.exp(-exposure).sum())


def check_ew(value, grid, grid_coarse, rel_tol, what):
    """value matches the grid sum within rel_tol plus the grid's own error,
    taken as the change from halving the spacing."""
    grid_err = abs(grid - grid_coarse)
    tol = rel_tol * abs(grid) + grid_err
    if not abs(value - grid) <= tol:
        return [f"{what}: {value!r} vs grid {grid!r} differs by "
                f"{abs(value - grid):.3g} > {tol:.3g} (grid error "
                f"{grid_err:.3g})"]
    return []


def check_torus_ew(value, b, what):
    """Torus E(W) is exactly exp(-b) when the square holds the reach of g."""
    target = math.exp(-b)
    if not abs(value - target) <= 1e-9 * target:
        return [f"{what}: {value!r} != exp(-b) = {target!r} to 1e-9"]
    return []


def check_xi2(est, se, ref_mean, ref_se, what):
    comb = math.sqrt(se * se + ref_se * ref_se)
    z = (est - ref_mean) / comb
    if not abs(z) <= NSIGMA:
        return [f"{what}: {est:.6g} +- {se:.3g} vs simulated {ref_mean:.6g} "
                f"+- {ref_se:.3g} is {z:+.2f} combined standard errors off"]
    return []
