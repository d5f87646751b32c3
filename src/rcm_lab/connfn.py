"""Connection functions and their tail analysis.

A connection function g maps a separation distance to a link probability.
It must be non-increasing with 0 < integral of g over the plane < infinity;
that integral (the spatial constant C) normalizes every model density.

Built-in families:

  unit_disk(r0)            hard geometric connection, support [0, r0]
  lognormal(sigma, eta, r0)  erfc-shadowing fade: 1/2 erfc(k log10(x/r0)),
                           k = 10 eta / (sigma sqrt(2))
  theta_tail(a, x0, g0)    g = min(g0, a / (x^2 ln^2 x)) past x0, so
                           x^2 ln^2(x) g(x) stabilizes at a
  omega_tail(p, x0, g0)    continuous 1/(x^2 ln^p x) tail with 1 < p < 2,
                           so x^2 ln^2(x) g(x) grows without bound

Custom functions come from tabulated (x, g) samples with an explicit tail
rule, or from a user callable.

Every g is described when it is built: its support radius, its radii
(where it jumps, kinks or changes formula) and its exact power-log tail.
No g is ever stretched: the dense and extended frames rescale positions
and keep the square frame's g (models.realize).

integral_constant and every effective_cutoff read one quadrature of g's
mass, made once per g and memoised by g.signature() (_mass): a head
integral and a closed-form tail, or, for a tail known only numerically,
one batched_quad call over the head and 60 doubling panels.

scipy.special is imported only where lognormal is evaluated or a theta
tail's start is solved: at module level it would make up more than half
of ``import rcm_lab``.
"""

import csv
import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from ._quadcore import adaptive_quad, batched_quad


class NonConvergentError(ArithmeticError):
    """Tail contributions failed to decay; g looks non-integrable."""


class InconclusiveTailError(ValueError):
    """The tail diagnostic oscillates without a trend."""


@dataclass(frozen=True)
class TailClass:
    kind: str              # "little_o", "theta", or "omega"
    limit_estimate: float  # limit of x^2 ln^2(x) g(x): 0, a, or inf
    confidence: str        # qualitative flag from the diagnostic


@dataclass(frozen=True)
class ConnectionFunction:
    name: str
    kind: str
    params: dict = field(compare=False)
    support_radius: float = math.inf
    # every radius where g jumps, kinks or changes formula
    radii: tuple = ()
    # (a, p, x_from): g(x) = a / (x^2 ln^p x) for x >= x_from.  None: no
    # power-log tail (compact support, or a tail known only numerically).
    tail: tuple | None = None

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("distances must be non-negative")
        out = self._eval(arr)
        return float(out) if out.shape == () else out

    def _eval(self, x):
        k = self.kind
        p = self.params
        if k == "unit_disk":
            return np.where(x <= p["r0"], 1.0, 0.0)
        if k == "lognormal":
            from scipy.special import erfc

            kslope = 10.0 * p["eta"] / (p["sigma"] * math.sqrt(2.0))
            # log10(0) = -inf gives g(0) = 1
            with np.errstate(divide="ignore"):
                return 0.5 * erfc(kslope * np.log10(x / p["r0"]))
        if k in ("theta_tail", "omega_tail"):
            g0 = p["g0"]
            return np.where(x <= p["x0"], g0,
                            np.minimum(g0, _power_log(x, *self.tail[:2])))
        if k == "tabulated":
            xs, gs = p["x"], p["g"]
            out = np.interp(x, xs, gs, left=gs[0], right=0.0)
            beyond = x > xs[-1]
            if self.tail is not None and np.any(beyond):
                t = _power_log(x, *self.tail[:2])
                out = np.where(beyond, np.minimum(t, 1.0), out)
            return out
        if k == "custom":
            return np.asarray(p["fn"](x), dtype=float)
        raise ValueError("unknown connection function kind %r" % k)

    def analytic_tail_integral(self, R):
        """2 pi * integral_R^inf x g(x) dx when known in closed form, else None."""
        if self.support_radius <= R:
            return 0.0
        if self.tail is None:
            return None
        a, p, x_from = self.tail
        if R < x_from:
            return None
        return _power_log_mass(a, p, R)

    def signature(self):
        """Hashable identity used to decide whether two specs share one g."""
        items = []
        for key in sorted(self.params):
            v = self.params[key]
            if isinstance(v, np.ndarray):
                items.append((key, v.tobytes()))
            elif callable(v):
                items.append((key, id(v)))
            else:
                items.append((key, v))
        return (self.kind, tuple(items))


def _check(ok, what, value):
    """Raise ValueError naming the parameter unless ok.  Every check is
    written so that NaN fails it: `not x > 0.0`, never `x <= 0.0`."""
    if not ok:
        raise ValueError("%s, got %r" % (what, value))


def _positive(name, v):
    _check(v > 0.0 and math.isfinite(v),
           name + " must be positive and finite", v)


def _tail_params(x0, g0):
    _check(x0 > 1.0 and math.isfinite(x0), "x0 must be finite and > 1", x0)
    _check(0.0 < g0 <= 1.0, "g0 must lie in (0, 1]", g0)


def unit_disk(r0=1.0):
    _positive("r0", r0)
    return ConnectionFunction(
        name="unit_disk(%g)" % r0, kind="unit_disk", params={"r0": float(r0)},
        support_radius=float(r0), radii=(float(r0),))


def lognormal(sigma, eta, r0=1.0):
    """Shadowing-style fade: probability 1/2 at x = r0, erfc roll-off."""
    for name, v in (("sigma", sigma), ("eta", eta), ("r0", r0)):
        _positive(name, v)
    return ConnectionFunction(
        name="lognormal(%g,%g,%g)" % (sigma, eta, r0), kind="lognormal",
        params={"sigma": float(sigma), "eta": float(eta), "r0": float(r0)})


def _power_log(x, a, p):
    """a / (x^2 ln^p x) for a float or an array; read at 2 for x <= 1."""
    with np.errstate(all="ignore"):
        lx = np.log(np.where(x > 1.0, x, 2.0))
        # lx ** 1.0 is exactly lx, so p = 2 is the plain a / (x x lx lx)
        return a / (x * x * lx * lx ** (p - 1.0))


def _theta_start(a, x0, g0):
    """Smallest float x >= x0 with a / (x^2 ln^2 x) <= g0: past x0, x ln x
    = c = sqrt(a / g0) gives x = c / W0(c), then stepped by ulps."""
    if _power_log(x0, a, 2.0) <= g0:
        return x0
    c = math.sqrt(a / g0)
    if not math.isfinite(c):
        raise ValueError("theta tail start overflows: sqrt(a / g0) = %r" % c)
    from scipy.special import lambertw

    x = max(float(c / lambertw(c).real), x0)
    while _power_log(x, a, 2.0) > g0:
        x = math.nextafter(x, math.inf)
    while x > x0 and _power_log(math.nextafter(x, x0), a, 2.0) <= g0:
        x = math.nextafter(x, x0)
    return x


def theta_tail(a, x0=3.0, g0=1.0):
    _positive("a", a)
    _tail_params(x0, g0)
    xf = _theta_start(float(a), float(x0), float(g0))
    return ConnectionFunction(
        name="theta_tail(%g,%g,%g)" % (a, x0, g0), kind="theta_tail",
        params={"a": float(a), "x0": float(x0), "g0": float(g0)},
        radii=(float(x0), xf), tail=(float(a), 2.0, xf))


def omega_tail(p, x0=3.0, g0=1.0):
    _check(1.0 < p < 2.0, "p must lie in (1, 2)", p)
    _tail_params(x0, g0)
    acont = g0 * x0 * x0 * math.log(x0) ** p
    return ConnectionFunction(
        name="omega_tail(%g,%g,%g)" % (p, x0, g0), kind="omega_tail",
        params={"p": float(p), "x0": float(x0), "g0": float(g0)},
        radii=(float(x0),), tail=(acont, float(p), float(x0)))


def from_callable(fn, name="custom", support_radius=math.inf,
                  discontinuities=()):
    return ConnectionFunction(name=name, kind="custom", params={"fn": fn},
                              support_radius=float(support_radius),
                              radii=tuple(float(d) for d in discontinuities))


def tabulated(x, g, tail_rule=("zero",), name="tabulated"):
    """Piecewise-linear g from samples; constant g[0] below x[0].

    tail_rule is ("zero",) or ("power_log", a, p) and applies past x[-1].
    """
    xs = np.asarray(x, dtype=float)
    gs = np.asarray(g, dtype=float)
    if xs.ndim != 1 or xs.shape != gs.shape or xs.size < 2:
        raise ValueError("need matching 1-D x and g arrays with >= 2 rows")
    if not np.all(np.isfinite(xs)):
        raise ValueError("x samples must be finite")
    if np.any(np.diff(xs) <= 0.0):
        raise ValueError("x samples must be strictly increasing")
    if not np.all((gs >= 0.0) & (gs <= 1.0)):
        raise ValueError("g samples must lie in [0, 1]")
    if np.any(np.diff(gs) > 0.0):
        raise ValueError("g samples must be non-increasing")
    if tail_rule[0] not in ("zero", "power_log"):
        raise ValueError("tail rule must be 'zero' or 'power_log'")

    support, tail = float(xs[-1]), None
    if tail_rule[0] == "power_log":
        a, p = float(tail_rule[1]), float(tail_rule[2])
        _positive("power_log tail a", a)
        _check(p > 1.0 and math.isfinite(p),
               "power_log tail p must be finite and > 1", p)
        if xs[-1] <= 1.0:
            raise ValueError("power_log tail needs the table to end past x = 1")
        if _power_log(xs[-1], a, p) > gs[-1] + 1e-12:
            raise ValueError("power_log tail would increase g at the join")
        support, tail = math.inf, (a, p, float(xs[-1]))
    return ConnectionFunction(
        name=name, kind="tabulated",
        params={"x": xs, "g": gs, "tail_rule": tuple(tail_rule)},
        support_radius=support, radii=tuple(xs.tolist()), tail=tail)


def load_tabulated_csv(path, tail_rule=("zero",)):
    """Read (x, g(x)) rows from a CSV file.

    Blank and '#' lines are skipped, and so is the first other row when it
    does not parse as two numbers (a header).  Any later such row raises
    ValueError naming its line.
    """
    xs, gs = [], []
    header_ok = True
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not "".join(row).strip() or row[0].lstrip().startswith("#"):
                continue
            try:
                xv, gv = float(row[0]), float(row[1])
            except (IndexError, ValueError):
                if not header_ok:
                    raise ValueError(
                        "%s line %d: expected two numbers x, g(x), got %r"
                        % (path, rows.line_num, ",".join(row))) from None
                header_ok = False
                continue
            header_ok = False
            xs.append(xv)
            gs.append(gv)
    return tabulated(xs, gs, tail_rule=tail_rule, name="tabulated:%s" % path)


_FAMILIES = {"unit_disk": unit_disk, "lognormal": lognormal,
             "theta_tail": theta_tail, "omega_tail": omega_tail}


def _check_keys(what, given, allowed, required=()):
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ValueError("unknown %s %s; expected some of %s"
                         % (what, unknown, sorted(allowed)))
    missing = [k for k in required if k not in given]
    if missing:
        raise ValueError("missing %s %s" % (what, missing))


def _tail_rule(tail_cfg):
    if not isinstance(tail_cfg, dict) or "kind" not in tail_cfg:
        raise ValueError("tabulated 'tail' needs a 'kind' entry: "
                         "'zero' or 'power_log'")
    kind = tail_cfg["kind"]
    if kind == "zero":
        _check_keys("zero tail key", tail_cfg, ("kind",))
        return ("zero",)
    if kind == "power_log":
        _check_keys("power_log tail key", tail_cfg, ("kind", "a", "p"),
                    ("a", "p"))
        return ("power_log", tail_cfg["a"], tail_cfg["p"])
    raise ValueError("unknown tabulated tail kind %r; expected 'zero' or "
                     "'power_log'" % (kind,))


def from_config(cfg):
    """Build a connection function from a config mapping.

    {"family": "unit_disk", "params": {"r0": 1.0}} and similarly for
    lognormal / theta_tail / omega_tail; tabulated takes {"path": ...,
    "tail": {"kind": "zero"} | {"kind": "power_log", "a": ..., "p": ...}}.
    Every malformed config raises ValueError naming the offending key.
    """
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ValueError("connection config needs a 'family' entry")
    stray = set(cfg) - {"family", "params"}
    if stray:
        raise ValueError(
            "unexpected connection config keys %s; function parameters "
            "belong under 'params'" % sorted(stray))
    family = cfg["family"]
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("connection config 'params' must be an object")
    if family == "tabulated":
        _check_keys("tabulated parameter", params, ("path", "tail"),
                    ("path",))
        if not isinstance(params["path"], str):
            raise ValueError("tabulated 'path' must be a string")
        rule = _tail_rule(params.get("tail", {"kind": "zero"}))
        make = load_tabulated_csv
        kwargs = {"path": params["path"], "tail_rule": rule}
    elif isinstance(family, str) and family in _FAMILIES:
        make = _FAMILIES[family]
        sig = inspect.signature(make).parameters
        _check_keys("%s parameter" % family, params, sig,
                    [k for k, v in sig.items() if v.default is v.empty])
        kwargs = params
    else:
        raise ValueError("unknown connection function family %r" % (family,))
    try:
        return make(**kwargs)
    except TypeError as exc:
        # A parameter of the wrong type, e.g. a string where a number goes.
        raise ValueError("bad %s parameters %r: %s"
                         % (family, params, exc)) from exc


def _structural_radii(g, upto):
    """Sorted distinct radii in (0, upto) where g jumps, kinks or changes
    formula: its support radius and g.radii."""
    return sorted({r for r in (g.support_radius, *g.radii) if 0.0 < r < upto})


def _unit_radius(g, reach):
    """r1 <= reach with g >= 1 on [0, r1], for a non-increasing g; 0 when
    g(0) < 1.

    g is read at 0, at reach and on a geometric grid of ratio 2^(1/64)
    below it; r1 is the last of these radii before the first where g < 1,
    moved up on 1024 even steps towards that one.  A hard disk's r1 is its
    reach; a g that reads 0 at its own reach has r1 just inside it.  It is
    g's plateau edge: cells mode links every pair less than r1 apart,
    whatever its uniform, and quadrature splits at it (_split_radii).
    """
    def units(r):
        # how many of the radii r, in rising order, g >= 1 holds before
        # the first failure
        return int(np.count_nonzero(
            np.logical_and.accumulate(g._eval(r) >= 1.0)))

    r = np.concatenate([[0.0], reach * 2.0 ** (np.arange(-40 * 64, 1) / 64.0)])
    c = units(r)
    if c in (0, r.size):
        return float(r[c - 1]) if c else 0.0
    r = np.linspace(r[c - 1], r[c], 1025)
    return float(r[units(r) - 1])


def _power_log_mass(a, p, R):
    """2 pi * int_R^inf a / (x ln^p x) dx = 2 pi a (ln R)^(1-p) / (p-1)."""
    return 2.0 * math.pi * a * math.log(R) ** (1.0 - p) / (p - 1.0)


def _tail_upto_stop(panels, rel_tol):
    """(panels, their sum) up to the first panel at most rel_tol times the
    running tail total; NonConvergentError (g looks non-integrable) if no
    panel is."""
    running = np.cumsum(panels)
    small = np.abs(panels) <= rel_tol * np.maximum(np.abs(running), 1e-300)
    if not small.any():
        raise NonConvergentError(
            "tail contributions failed to decay over %d doubling intervals"
            % panels.size)
    stop = np.argmax(small)
    return panels[:stop + 1], running[stop]


def _check_met(g, vals, errs, rel_tol, abs_tol=0.0, what="mass"):
    """NonConvergentError naming g unless every integral of g's `what`
    (values vals, errors errs) met max(abs_tol, rel_tol |value|), as
    batched_quad measures it: an integral that stops at its panel limit can
    end above it.  A NaN error fails."""
    vals, errs = np.atleast_1d(vals), np.atleast_1d(errs)
    tol = np.maximum(abs_tol, rel_tol * np.abs(vals))
    over = np.flatnonzero(~(errs <= tol))
    if over.size:
        k = over[0]
        raise NonConvergentError(
            "%s of %s: integral %d of %d ended at error %.3g, above its "
            "tolerance %.3g" % (what, g.name, k, vals.size, errs[k], tol[k]))


# g's mass quadratures by g.signature(), oldest first.  A custom g's
# signature holds id(fn), which CPython reuses once fn is collected, so each
# entry also holds its g: while an entry is cached no other callable can
# take its id.  Bounded, so long runs over many g stay small.
_MASS_CACHE = {}
_MASS_CACHE_SIZE = 64


def _mass(g):
    """(C, R0, panels): g's plane integral C = 2 pi * int_0^inf x g(x) dx,
    integrated once per g and then read from _MASS_CACHE.

    Compact support and power-log tails integrate the head up to where the
    closed form takes over, to rel 5e-11; R0 and panels are None.  Other g
    integrate x g(x) over [0, R0], R0 = max(1, twice every one of g.radii),
    and over the 60 panels [R0 2^k, R0 2^(k+1)] in one batched_quad call,
    to rel 1e-12 with at most 200 panels each; C sums the head and the
    panels up to the first below 5e-11 of the running tail.  An integral
    summed into C that ends above its tolerance raises NonConvergentError.
    """
    key = g.signature()
    if key in _MASS_CACHE:
        return _MASS_CACHE[key][1]
    R0 = panels = None
    tail = g.tail
    if tail is None and not math.isfinite(g.support_radius):
        R0 = max([1.0] + [2.0 * r for r in g.radii])
        edges = R0 * 2.0 ** np.arange(61)
        radii = _structural_radii(g, R0)
        brk = np.full((61, len(radii)), np.nan)
        brk[0] = radii
        vals, errs = batched_quad(lambda x, k: x * g._eval(x),
                                  np.concatenate([[0.0], edges[:-1]]), edges,
                                  rel_tol=1e-12, breakpoints=brk, limit=200)
        panels = vals[1:]
        summed, tail_sum = _tail_upto_stop(panels, 5e-11)
        used = slice(0, summed.size + 1)
        _check_met(g, vals[used], errs[used], 1e-12)
        total = 2.0 * math.pi * (vals[0] + tail_sum)
    else:
        upto, rest = g.support_radius, 0.0
        if tail is not None:
            a, p, upto = tail
            rest = _power_log_mass(a, p, upto)
        head, err = adaptive_quad(lambda x: x * g._eval(x), 0.0, upto,
                                  rel_tol=5e-11,
                                  breakpoints=_structural_radii(g, upto))
        _check_met(g, head, err, 5e-11)
        total = 2.0 * math.pi * head + rest
    if not total > 0.0:
        raise ValueError("connection function must have positive mass")
    if len(_MASS_CACHE) >= _MASS_CACHE_SIZE:
        del _MASS_CACHE[next(iter(_MASS_CACHE))]
    _MASS_CACHE[key] = (g, (float(total), R0, panels))
    return _MASS_CACHE[key][1]


def integral_constant(g):
    """The plane integral of g: C = 2 pi * integral_0^inf x g(x) dx.

    Splits at g's structural radii.  A power-log tail adds its closed form
    past the head; any other infinite tail is summed over geometric
    [R, 2R] panels up to the first below 5e-11 of the running tail.
    Raises NonConvergentError when tail panels fail to decay
    (non-integrable g) and ValueError when the integral is not positive.
    """
    return _mass(g)[0]


def check_monotonicity(g, grid=4096):
    """True when g is non-increasing on a geometric grid spanning 1e-6..1e6."""
    xs = np.geomspace(1e-6, 1e6, int(grid))
    vals = np.asarray(g._eval(xs), dtype=float)
    return bool(np.all(np.diff(vals) <= 1e-12))


def classify_tail(g):
    """Classify lim x^2 ln^2(x) g(x) by sampling octaves x = 2^10 .. 2^60.

    Returns TailClass: little_o (limit 0), theta (finite positive limit,
    last 10 octaves agree within 1%), or omega (unbounded growth).
    Raises InconclusiveTailError when the samples oscillate without trend.
    """
    ks = np.arange(10, 61)
    xs = np.power(2.0, ks)
    fs = np.asarray(g._eval(xs), dtype=float) * xs * xs * np.log(xs) ** 2
    tail = fs[-10:]

    if np.all(tail == 0.0):
        return TailClass("little_o", 0.0, "exact-zero")
    mean = float(np.mean(tail))
    if mean > 0.0 and (tail.max() - tail.min()) <= 0.01 * mean:
        return TailClass("theta", mean, "stable-window")
    diffs = np.diff(fs[-20:])
    if np.all(diffs >= 0.0) and fs[-1] > fs[-20]:
        return TailClass("omega", math.inf, "trend")
    if np.all(diffs <= 0.0) and fs[-1] < fs[-20]:
        return TailClass("little_o", 0.0, "trend")
    raise InconclusiveTailError(
        "tail diagnostic oscillates; no stable limit over sampled octaves")


def effective_cutoff(g, tail_mass):
    """Smallest doubling-grid radius R with 2 pi int_R^inf x g dx <= tail_mass * C.

    Compact support returns the support radius.  Power-log tails are solved
    in log space; if the required radius overflows floats the cutoff is
    reported as inf (callers fall back to exact all-pairs behaviour).  Any
    other tail reads C and the doubling panels from the one quadrature
    behind integral_constant, and sums the panels up to the first below
    1e-14 of the running tail.  Every tail_mass reads g's one memoised
    _mass, so a cutoff integrates nothing once C is known.
    """
    if not 0.0 < tail_mass < 1.0:
        raise ValueError("tail_mass must lie in (0, 1)")
    if math.isfinite(g.support_radius):
        return float(g.support_radius)

    C, R0, panels = _mass(g)
    target = tail_mass * C

    if g.tail is not None:
        a, p, tail_from = g.tail
        # Solve 2 pi a (ln R)^(1-p) / (p-1) = target for R.
        ln_r = (2.0 * math.pi * a / ((p - 1.0) * target)) ** (1.0 / (p - 1.0))
        if ln_r > 700.0:
            return math.inf
        return max(math.exp(ln_r), tail_from)

    vals, _ = _tail_upto_stop(panels, 1e-14)
    # tail beyond panel k's left edge R0 2^k ~ suffix sum from k on, and
    # none is counted past the last panel.
    beyond = 2.0 * math.pi * np.cumsum(vals[::-1])[::-1] <= target
    return float(R0 * 2.0 ** np.argmax(np.append(beyond, True)))
