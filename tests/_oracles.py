"""Independent brute-force reference implementations used by the tests.

Nothing here imports the package's quadrature or simulation internals: the
point is to check the library against structurally different computations.
Expected values frozen into tests were produced by these functions; each
frozen constant records the call that generated it.
"""

import math

import numpy as np


def quarter_plane_disk_area(X, Y, r):
    """Area of {x <= X, y <= Y} inside the origin-centered disk of radius r.

    Closed form assembled from the antiderivatives of sqrt(r^2 - x^2);
    fully vectorized in X, Y.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    X, Y = np.broadcast_arrays(X, Y)
    r = float(r)

    def g1(t):
        # antiderivative of sqrt(r^2 - x^2), zero at t = 0
        t = np.clip(t, -r, r)
        return 0.5 * (t * np.sqrt(np.maximum(r * r - t * t, 0.0))
                      + r * r * np.arcsin(np.clip(t / r, -1.0, 1.0)))

    def left_area(t):
        # disk area with x <= t
        t = np.clip(t, -r, r)
        return (t * np.sqrt(np.maximum(r * r - t * t, 0.0))
                + r * r * (np.arcsin(np.clip(t / r, -1.0, 1.0)) + 0.5 * math.pi))

    xc = np.clip(X, -r, r)
    out = np.zeros_like(xc)

    # Y >= r: the y-constraint is inactive.
    hi = Y >= r
    out = np.where(hi, left_area(xc), out)

    # |Y| < r: split the x-range at +-xY = sqrt(r^2 - Y^2).
    mid = np.abs(Y) < r
    yv = np.where(mid, Y, 0.0)
    xy = np.sqrt(np.maximum(r * r - yv * yv, 0.0))

    # strip |x| <= xY contributes (Y + s(x)); outer strips contribute
    # 2 s(x) when Y > 0 and nothing when Y < 0.
    lo_end = np.minimum(xc, -xy)
    mid_end = np.clip(xc, -xy, xy)
    strip = yv * (mid_end - (-xy)) + g1(mid_end) - g1(-xy)
    outer = np.where(yv >= 0.0,
                     left_area(lo_end)
                     + np.where(xc > xy, left_area(xc) - left_area(xy), 0.0),
                     0.0)
    out = np.where(mid, np.where(xc <= -xy, np.where(yv >= 0.0,
                                                     left_area(xc), 0.0),
                                 outer + strip), out)
    return out


def disk_square_overlap(cx, cy, r, half):
    """Area of the disk of radius r at (cx, cy) inside [-half, half]^2."""
    cx = np.asarray(cx, dtype=float)
    cy = np.asarray(cy, dtype=float)
    x0, x1 = -half - cx, half - cx
    y0, y1 = -half - cy, half - cy
    return (quarter_plane_disk_area(x1, y1, r)
            - quarter_plane_disk_area(x0, y1, r)
            - quarter_plane_disk_area(x1, y0, r)
            + quarter_plane_disk_area(x0, y0, r))


def riemann_expected_isolated_disk(rho, b, r0=1.0, cells=4096):
    """Midpoint Riemann sum for E(W), unit-disk g, on the square frame.

    E(W) = lam * sum over cell centers y of exp(-lam * |A & D(y, r0)|) * h^2
    with side = sqrt(C rho / (log rho + b)), C = pi r0^2, lam = (log rho+b)/C.
    """
    C = math.pi * r0 * r0
    L = math.log(rho) + b
    lam = L / C
    side = math.sqrt(C * rho / L)
    half = 0.5 * side
    h = side / cells
    centers = -half + h * (np.arange(cells) + 0.5)
    total = 0.0
    chunk = max(1, (1 << 22) // cells)
    for lo in range(0, cells, chunk):
        ys = centers[lo:lo + chunk]
        ov = disk_square_overlap(centers[None, :], ys[:, None], r0, half)
        total += float(np.exp(-lam * ov).sum())
    return lam * h * h * total


def mc_disk_square_overlap(cx, cy, r, half, n, seed):
    """Monte Carlo check of disk_square_overlap (hit counting)."""
    rng = np.random.default_rng(seed)
    ang = rng.random(n) * 2.0 * math.pi
    rad = r * np.sqrt(rng.random(n))
    xs = cx + rad * np.cos(ang)
    ys = cy + rad * np.sin(ang)
    hits = (np.abs(xs) <= half) & (np.abs(ys) <= half)
    return math.pi * r * r * float(hits.mean())


def lens_area_mc(z, r, n, seed):
    """MC area of D((0,0),r) minus D((0,z),r) by hit counting."""
    rng = np.random.default_rng(seed)
    ang = rng.random(n) * 2.0 * math.pi
    rad = r * np.sqrt(rng.random(n))
    xs = rad * np.cos(ang)
    ys = rad * np.sin(ang)
    outside_other = xs * xs + (ys - z) ** 2 > r * r
    return math.pi * r * r * float(outside_other.mean())


def bfs_components(n, edges):
    """Component orders by plain breadth-first search over adjacency lists."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[int(i)].append(int(j))
        adj[int(j)].append(int(i))
    seen = [False] * n
    orders = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        size = 0
        while queue:
            v = queue.pop()
            size += 1
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        orders.append(size)
    return sorted(orders)


def pairwise_edges_bruteforce(positions, g_values_fn, uniform_fn,
                              distance_fn=None):
    """Edge list by the definition: for every unordered pair, compare the
    pair uniform against g at the pair distance (Euclidean unless
    distance_fn(p, q) is given)."""
    n = positions.shape[0]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if distance_fn is None:
                d = math.hypot(positions[i, 0] - positions[j, 0],
                               positions[i, 1] - positions[j, 1])
            else:
                d = distance_fn(positions[i], positions[j])
            if uniform_fn(i, j) < g_values_fn(d):
                edges.append((i, j))
    return edges


def torus_distance_reference(p, q, side):
    """Toroidal distance by explicit 3x3 translate enumeration."""
    best = math.inf
    for ox in (-side, 0.0, side):
        for oy in (-side, 0.0, side):
            best = min(best, math.hypot(p[0] - q[0] + ox, p[1] - q[1] + oy))
    return best


def polar_exposure(g, jumps, x, y, half):
    """integral of g(|p - (x, y)|) over the square [-half, half]^2, by scipy
    quad in polar coordinates about (x, y).

    g is a scalar function and jumps the radii where it jumps.  The ray at
    angle th leaves the square at reach(th); the inner integral
    int_0^reach r g(r) dr is smooth in th except where the ray turns a
    corner or reach crosses a jump, and the outer rule splits there.
    """
    from scipy.integrate import quad

    def radial(s):
        pts = [j for j in jumps if 0.0 < j < s]
        v, _ = quad(lambda r: r * g(r), 0.0, s, points=pts or None,
                    epsabs=1e-14, epsrel=1e-13, limit=400)
        return v

    walls = ((0.0, half - x), (math.pi, half + x),
             (0.5 * math.pi, half - y), (1.5 * math.pi, half + y))

    def reach(th):
        out = math.inf
        for normal, dist in walls:
            c = math.cos(th - normal)
            if c > 0.0:
                out = min(out, dist / c)
        return out

    kinks = [math.atan2(cy - y, cx - x) for cx in (half, -half)
             for cy in (half, -half)]
    for normal, dist in walls:
        for j in jumps:
            if dist < j:
                kinks += [normal + s * math.acos(dist / j) for s in (-1, 1)]
    kinks = sorted(k % (2.0 * math.pi) for k in kinks)
    v, _ = quad(lambda th: radial(reach(th)), 0.0, 2.0 * math.pi,
                points=kinks, epsabs=1e-13, epsrel=1e-12, limit=400)
    return v
