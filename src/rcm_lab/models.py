"""Network model frames and their parameter algebra.

All frames describe the same random graph at different length scales.  With
C the plane integral of g and r = sqrt((ln rho + b) / (C rho)):

  dense     unit square, intensity rho: the square frame times r
  extended  square of side sqrt(rho), intensity 1: the square frame times
            sqrt((ln rho + b) / C)
  square    square of side 1/r, intensity (ln rho + b) / C, connection g
  torus     same numbers as square, periodic metric
  window    square frame padded on all sides; emulates the plane

Every frame has expected node count rho (window: rho plus the pad).  The
factor that takes the square frame to dense or extended is their
conn_scale: a pair x apart in the square frame lies x * conn_scale apart
there and links with probability g(x).  realize builds both as the square
frame's instance for the seed with its positions multiplied by
conn_scale, so they share its edges and g by construction.
"""

import math
from dataclasses import dataclass, field, replace

from . import simulate
from .connfn import ConnectionFunction, effective_cutoff, integral_constant
from .geometry import Region

MODELS = ("dense", "extended", "square", "torus", "window")


class InvalidParamsError(ValueError):
    """Model parameters outside the admissible range (e.g. ln rho + b <= 0)."""


@dataclass(frozen=True)
class ModelSpec:
    model: str
    rho: float
    b: float
    g: ConnectionFunction
    # window frame only; keyword-only, so a stray fifth argument fails
    margin: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidParamsError("model must be one of %s" % (MODELS,))
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise InvalidParamsError("rho must be positive and finite")
        if not math.isfinite(self.b):
            raise InvalidParamsError("b must be finite")

    def with_constant(self):
        """This spec, once g's plane integral C is computed into the per-g
        cache that derive reads; lets a caller pay for C up front."""
        integral_constant(self.g)
        return self


@dataclass(frozen=True)
class DerivedParams:
    r_rho: float
    lam: float            # intensity of the square/torus frame
    side: float
    density: float        # intensity in this frame
    expected_nodes: float
    conn_scale: float     # this frame's lengths over the square frame's
    core_side: float      # observation core (differs from side for window)
    margin: float


def derive(spec):
    """Frame parameters for a spec; raises InvalidParamsError off-domain."""
    C = integral_constant(spec.g)
    logterm = math.log(spec.rho) + spec.b
    if logterm <= 0.0:
        raise InvalidParamsError(
            "need ln(rho) + b > 0 (got %g)" % logterm)
    lam = logterm / C
    r_rho = math.sqrt(logterm / (C * spec.rho))

    m = spec.model
    if m == "dense":
        side, density, scale = 1.0, spec.rho, r_rho
    elif m == "extended":
        side, density, scale = math.sqrt(spec.rho), 1.0, math.sqrt(logterm / C)
    elif m in ("square", "torus"):
        side, density, scale = 1.0 / r_rho, lam, 1.0
    else:  # window
        margin = spec.margin
        if margin is None:
            cut = effective_cutoff(spec.g, 1e-6)
            margin = max(cut if math.isfinite(cut) else 0.0,
                         5.0 / (2.0 * math.sqrt(lam)))
        if not margin >= 0.0:
            raise InvalidParamsError("window margin must be >= 0")
        core = 1.0 / r_rho
        side, density, scale = core + 2.0 * margin, lam, 1.0
        return DerivedParams(
            r_rho=r_rho, lam=lam, side=side, density=density,
            expected_nodes=lam * side * side, conn_scale=scale,
            core_side=core, margin=margin)

    # expected_nodes = density * side^2 = rho exactly, by construction.
    return DerivedParams(
        r_rho=r_rho, lam=lam, side=side, density=density,
        expected_nodes=spec.rho, conn_scale=scale, core_side=side, margin=0.0)


def _frame_region(spec, d):
    return Region("torus" if spec.model == "torus" else "square", d.side)


def frame_region(spec):
    return _frame_region(spec, derive(spec))


def realize(spec, seed, mode="exact", tail_mass=1e-6):
    """Sample one instance of the model: points plus edge set.

    Dense and extended are the square frame's instance for this seed, its
    side 1/r_rho, intensity lam and expected count rho read from this
    frame's derive: the positions are the square's times conn_scale, and
    the edges and g are the square's.  Equal-seed realizations of the
    three frames therefore share their node count and edge index sets by
    construction.
    """
    d = derive(spec)
    if spec.model not in ("dense", "extended"):
        pts = simulate.sample_poisson(_frame_region(spec, d), d.density,
                                      seed, expected_count=d.expected_nodes)
        return simulate.build_graph(pts, spec.g, mode=mode,
                                    tail_mass=tail_mass)
    pts = simulate.sample_poisson(Region("square", 1.0 / d.r_rho), d.lam,
                                  seed, expected_count=d.expected_nodes)
    graph = simulate.build_graph(pts, spec.g, mode=mode, tail_mass=tail_mass)
    return replace(graph, points=replace(
        pts, positions=pts.positions * d.conn_scale,
        region=_frame_region(spec, d), density=d.density))

