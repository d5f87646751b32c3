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

integral_constant and effective_cutoff share one quadrature of g's mass: a
head integral and a closed-form tail, or, for a tail known only
numerically, one batched_quad call over the head and 60 doubling panels.

scipy.special is imported only where lognormal is evaluated: at module
level it would make up more than half of ``import rcm_lab``.
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
    discontinuities: tuple = ()
    # ("zero", R): no mass past R. ("power_log", a, p, x_from): the exact
    # tail a/(x^2 ln^p x) holds for x >= x_from.  None: numeric tail only.
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
        if k == "theta_tail":
            a, x0, g0 = p["a"], p["x0"], p["g0"]
            with np.errstate(divide="ignore", invalid="ignore"):
                lx = np.log(np.where(x > 1.0, x, 2.0))
                tail = a / (x * x * lx * lx)
            return np.where(x <= x0, g0, np.minimum(g0, tail))
        if k == "omega_tail":
            pexp, x0, g0 = p["p"], p["x0"], p["g0"]
            acont = g0 * x0 * x0 * math.log(x0) ** pexp
            with np.errstate(divide="ignore", invalid="ignore"):
                lx = np.log(np.where(x > 1.0, x, 2.0))
                tail = acont / (x * x * lx ** pexp)
            return np.where(x <= x0, g0, np.minimum(g0, tail))
        if k == "tabulated":
            xs, gs = p["x"], p["g"]
            out = np.interp(x, xs, gs, left=gs[0], right=0.0)
            rule = p["tail_rule"]
            beyond = x > xs[-1]
            if rule[0] == "power_log" and np.any(beyond):
                a, pw = rule[1], rule[2]
                with np.errstate(divide="ignore", invalid="ignore"):
                    lx = np.log(np.where(beyond, x, 2.0))
                    t = a / (x * x * lx ** pw)
                out = np.where(beyond, np.minimum(t, 1.0), out)
            return out
        if k == "scaled":
            return self.params["base"]._eval(x / p["factor"])
        if k == "zero":
            return np.zeros_like(x)
        if k == "custom":
            return np.asarray(p["fn"](x), dtype=float)
        raise ValueError("unknown connection function kind %r" % k)

    def scaled(self, factor):
        """The function x -> g(x / factor); stretches all length scales."""
        if not (factor > 0.0 and math.isfinite(factor)):
            raise ValueError("scale factor must be positive and finite")
        if factor == 1.0:
            return self
        tail = None
        if self.tail is not None:
            if self.tail[0] == "zero":
                tail = ("zero", self.tail[1] * factor)
            # power_log tails do not stay power_log under scaling (the log
            # shifts); _power_log_tail reads the base's instead.
        return ConnectionFunction(
            name="%s*%g" % (self.name, factor),
            kind="scaled",
            params={"base": self, "factor": factor},
            support_radius=self.support_radius * factor,
            discontinuities=tuple(d * factor for d in self.discontinuities),
            tail=tail,
        )

    def analytic_tail_integral(self, R):
        """2 pi * integral_R^inf x g(x) dx when known in closed form, else None."""
        if self.support_radius <= R:
            return 0.0
        tail = _power_log_tail(self)
        if tail is None:
            return None
        a, p, x_from, scale = tail
        if R / scale < x_from:
            return None
        return scale * scale * _power_log_mass(a, p, R / scale)

    def signature(self):
        """Hashable identity used to decide whether two specs share one g."""
        items = []
        for key in sorted(self.params):
            v = self.params[key]
            if isinstance(v, np.ndarray):
                items.append((key, v.tobytes()))
            elif isinstance(v, ConnectionFunction):
                items.append((key, v.signature()))
            elif callable(v):
                items.append((key, id(v)))
            else:
                items.append((key, v))
        return (self.kind, tuple(items))


def unit_disk(r0=1.0):
    if not r0 > 0.0:
        raise ValueError("r0 must be positive")
    return ConnectionFunction(
        name="unit_disk(%g)" % r0, kind="unit_disk", params={"r0": float(r0)},
        support_radius=float(r0), discontinuities=(float(r0),),
        tail=("zero", float(r0)))


def lognormal(sigma, eta, r0=1.0):
    """Shadowing-style fade: probability 1/2 at x = r0, erfc roll-off."""
    if sigma <= 0.0 or eta <= 0.0 or r0 <= 0.0:
        raise ValueError("sigma, eta, r0 must be positive")
    return ConnectionFunction(
        name="lognormal(%g,%g,%g)" % (sigma, eta, r0), kind="lognormal",
        params={"sigma": float(sigma), "eta": float(eta), "r0": float(r0)})


def _power_log_start(a, p, x0, g0):
    """Smallest x >= x0 from which g equals a/(x^2 ln^p x) exactly."""
    def tail(x):
        return a / (x * x * math.log(x) ** p)
    if tail(x0) <= g0:
        return float(x0)
    lo, hi = x0, x0
    while tail(hi) > g0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail(mid) > g0:
            lo = mid
        else:
            hi = mid
    return hi


def theta_tail(a, x0=3.0, g0=1.0):
    if a <= 0.0 or x0 <= 1.0 or not 0.0 < g0 <= 1.0:
        raise ValueError("need a > 0, x0 > 1, 0 < g0 <= 1")
    xf = _power_log_start(a, 2.0, x0, g0)
    return ConnectionFunction(
        name="theta_tail(%g,%g,%g)" % (a, x0, g0), kind="theta_tail",
        params={"a": float(a), "x0": float(x0), "g0": float(g0)},
        tail=("power_log", float(a), 2.0, xf))


def omega_tail(p, x0=3.0, g0=1.0):
    if not 1.0 < p < 2.0:
        raise ValueError("need 1 < p < 2")
    if x0 <= 1.0 or not 0.0 < g0 <= 1.0:
        raise ValueError("need x0 > 1, 0 < g0 <= 1")
    acont = g0 * x0 * x0 * math.log(x0) ** p
    return ConnectionFunction(
        name="omega_tail(%g,%g,%g)" % (p, x0, g0), kind="omega_tail",
        params={"p": float(p), "x0": float(x0), "g0": float(g0)},
        tail=("power_log", acont, float(p), float(x0)))


def zero_function():
    """Degenerate g = 0; valid for graph building, not for model densities."""
    return ConnectionFunction(name="zero", kind="zero", params={},
                              support_radius=0.0, tail=("zero", 0.0))


def from_callable(fn, name="custom", support_radius=math.inf,
                  discontinuities=()):
    return ConnectionFunction(name=name, kind="custom", params={"fn": fn},
                              support_radius=float(support_radius),
                              discontinuities=tuple(discontinuities))


def tabulated(x, g, tail_rule=("zero",), name="tabulated"):
    """Piecewise-linear g from samples; constant g[0] below x[0].

    tail_rule is ("zero",) or ("power_log", a, p) and applies past x[-1].
    """
    xs = np.asarray(x, dtype=float)
    gs = np.asarray(g, dtype=float)
    if xs.ndim != 1 or xs.shape != gs.shape or xs.size < 2:
        raise ValueError("need matching 1-D x and g arrays with >= 2 rows")
    if np.any(np.diff(xs) <= 0.0):
        raise ValueError("x samples must be strictly increasing")
    if np.any(gs < 0.0) or np.any(gs > 1.0):
        raise ValueError("g samples must lie in [0, 1]")
    if np.any(np.diff(gs) > 0.0):
        raise ValueError("g samples must be non-increasing")
    if tail_rule[0] not in ("zero", "power_log"):
        raise ValueError("tail rule must be 'zero' or 'power_log'")

    discs = []
    support = math.inf
    tail = None
    if tail_rule[0] == "zero":
        support = float(xs[-1])
        tail = ("zero", support)
        if gs[-1] > 0.0:
            discs.append(float(xs[-1]))
    else:
        a, p = float(tail_rule[1]), float(tail_rule[2])
        if a <= 0.0 or p <= 1.0:
            raise ValueError("power_log tail needs a > 0 and p > 1")
        if xs[-1] <= 1.0:
            raise ValueError("power_log tail needs the table to end past x = 1")
        join = a / (xs[-1] ** 2 * math.log(xs[-1]) ** p)
        if join > gs[-1] + 1e-12:
            raise ValueError("power_log tail would increase g at the join")
        if abs(join - gs[-1]) > 1e-12 * max(gs[-1], 1e-300):
            discs.append(float(xs[-1]))
        tail = ("power_log", a, p, float(xs[-1]))
    return ConnectionFunction(
        name=name, kind="tabulated",
        params={"x": xs, "g": gs, "tail_rule": tuple(tail_rule)},
        support_radius=support, discontinuities=tuple(discs), tail=tail)


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
    formula: its support radius, discontinuities, tabulated samples and the
    start of its exact tail, each stretched through any scaling."""
    radii = [g.support_radius, *g.discontinuities]
    if g.tail is not None and g.tail[0] == "power_log":
        radii.append(g.tail[3])
    if g.kind in ("theta_tail", "omega_tail"):
        radii.append(g.params["x0"])
    if g.kind == "tabulated":
        radii.extend(g.params["x"])
    if g.kind == "scaled":
        f = g.params["factor"]
        radii.extend(r * f for r in _structural_radii(g.params["base"],
                                                      math.inf))
    return sorted({float(r) for r in radii if 0.0 < r < upto})


def _power_log_mass(a, p, R):
    """2 pi * int_R^inf a / (x ln^p x) dx = 2 pi a (ln R)^(1-p) / (p-1)."""
    return 2.0 * math.pi * a * math.log(R) ** (1.0 - p) / (p - 1.0)


def _power_log_tail(g):
    """(a, p, x_from, scale) of the exact power-log tail g carries, or None.

    A scaled function has the tail of its base, stretched by scale: it
    starts at x_from * scale.  Nested scalings multiply their factors.
    """
    if g.tail is not None and g.tail[0] == "power_log":
        _, a, p, x_from = g.tail
        return a, p, x_from, 1.0
    if g.kind == "scaled":
        tail = _power_log_tail(g.params["base"])
        if tail is not None:
            a, p, x_from, scale = tail
            return a, p, x_from, scale * g.params["factor"]
    return None


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


def _mass(g, rel_tol):
    """(C, R0, panels): g's plane integral C = 2 pi * int_0^inf x g(x) dx.

    Compact support and power-log tails integrate the head up to where the
    closed form takes over, to rel rel_tol / 2; R0 and panels are None.
    Other g integrate x g(x) over [0, R0], R0 = max(1, twice every
    discontinuity), and over the 60 panels [R0 2^k, R0 2^(k+1)] in one
    batched_quad call, to rel min(rel_tol / 2, 1e-12) with at most 200
    panels each; C sums the head and the panels up to the first below
    rel_tol / 2 of the running tail.
    """
    R0 = panels = None
    tail = _power_log_tail(g)
    if tail is None and not math.isfinite(g.support_radius):
        R0 = max([1.0] + [2.0 * d for d in g.discontinuities])
        edges = R0 * 2.0 ** np.arange(61)
        radii = _structural_radii(g, R0)
        brk = np.full((61, len(radii)), np.nan)
        brk[0] = radii
        vals, _ = batched_quad(lambda x, k: x * g._eval(x),
                               np.concatenate([[0.0], edges[:-1]]), edges,
                               rel_tol=min(0.5 * rel_tol, 1e-12),
                               breakpoints=brk, limit=200)
        panels = vals[1:]
        total = 2.0 * math.pi * (vals[0] + _tail_upto_stop(
            panels, 0.5 * rel_tol)[1])
    else:
        upto, rest = g.support_radius, 0.0
        if tail is not None:
            # The base's analytic_tail_integral(x_from), stretched by
            # scale^2; taken from the tail itself, since x_from * scale /
            # scale can round to just below x_from.
            a, p, x_from, scale = tail
            upto = x_from * scale
            rest = scale * scale * _power_log_mass(a, p, x_from)
        head, _ = adaptive_quad(lambda x: x * g._eval(x), 0.0, upto,
                                rel_tol=0.5 * rel_tol,
                                breakpoints=_structural_radii(g, upto))
        total = 2.0 * math.pi * head + rest
    if not total > 0.0:
        raise ValueError("connection function must have positive mass")
    return float(total), R0, panels


def integral_constant(g, rel_tol=1e-10):
    """The plane integral of g: C = 2 pi * integral_0^inf x g(x) dx.

    Splits at g's structural radii.  A power-log tail adds its closed form
    past the head; any other infinite tail is summed over geometric
    [R, 2R] panels up to the first below rel_tol / 2 of the running tail.
    Raises NonConvergentError when tail panels fail to decay
    (non-integrable g) and ValueError when the integral is not positive.
    """
    if not 1e-14 < rel_tol < 1e-2:
        raise ValueError("rel_tol must lie in (1e-14, 1e-2)")
    return _mass(g, rel_tol)[0]


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


# Effective cutoffs by (g.signature(), tail_mass), oldest first.  A custom
# g's signature holds id(fn), which CPython reuses once fn is collected, so
# each entry also holds its g: while an entry is cached no other callable
# can take its id.  Bounded, so long runs over many g stay small.
_CUTOFF_CACHE = {}
_CUTOFF_CACHE_SIZE = 64


def effective_cutoff(g, tail_mass):
    """Smallest doubling-grid radius R with 2 pi int_R^inf x g dx <= tail_mass * C.

    Compact support returns the support radius.  Power-log tails are solved
    in log space; if the required radius overflows floats the cutoff is
    reported as inf (callers fall back to exact all-pairs behaviour).  Any
    other tail reads C and the doubling panels from the one quadrature
    behind integral_constant, and sums the panels up to the first below
    1e-14 of the running tail.  Each (g, tail_mass) is solved once.
    """
    if not 0.0 < tail_mass < 1.0:
        raise ValueError("tail_mass must lie in (0, 1)")
    key = (g.signature(), float(tail_mass))
    if key not in _CUTOFF_CACHE:
        if len(_CUTOFF_CACHE) >= _CUTOFF_CACHE_SIZE:
            del _CUTOFF_CACHE[next(iter(_CUTOFF_CACHE))]
        _CUTOFF_CACHE[key] = (g, _solve_cutoff(g, tail_mass))
    return _CUTOFF_CACHE[key][1]


def _solve_cutoff(g, tail_mass):
    if math.isfinite(g.support_radius):
        return float(g.support_radius)

    C, R0, panels = _mass(g, 1e-10)
    target = tail_mass * C

    tail = _power_log_tail(g)
    if tail is not None:
        a, p, tail_from, scale = tail
        # Solve 2 pi a (ln u)^(1-p) / (p-1) = target / scale^2 for u = R/scale.
        t = target / (scale * scale)
        ln_u = (2.0 * math.pi * a / ((p - 1.0) * t)) ** (1.0 / (p - 1.0))
        if ln_u > 700.0:
            return math.inf
        return max(math.exp(ln_u), tail_from) * scale

    vals, _ = _tail_upto_stop(panels, 1e-14)
    # tail beyond panel k's left edge R0 2^k ~ suffix sum from k on, and
    # none is counted past the last panel.
    beyond = 2.0 * math.pi * np.cumsum(vals[::-1])[::-1] <= target
    return float(R0 * 2.0 ** np.argmax(np.append(beyond, True)))
