"""Network model frames and their parameter algebra.

All frames describe the same random graph at different length scales.  With
C the plane integral of g and r = sqrt((ln rho + b) / (C rho)):

  dense     unit square, intensity rho, connection g(x / r)
  extended  square of side sqrt(rho), intensity 1, connection
            g(x / sqrt((ln rho + b) / C))
  square    square of side 1/r, intensity (ln rho + b) / C, connection g
  torus     same numbers as square, periodic metric
  window    square frame padded on all sides; emulates the plane

Every frame has expected node count rho (window: rho plus the pad) and the
same expected edge-probability structure, which is what the shared-seed
coupling tests rely on.
"""

import math
from dataclasses import dataclass, field

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
    conn_scale: float     # this frame uses g(distance / conn_scale)
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

    Shared-seed realizations of the dense/extended/square frames give the
    same node count, the same unit-square positions (scaled), and identical
    edge index sets, because the node draw is keyed by (seed, expected rho)
    and edge decisions are keyed by (seed, i, j) alone.
    """
    d = derive(spec)
    pts = simulate.sample_poisson(_frame_region(spec, d), d.density, seed,
                                  expected_count=d.expected_nodes)
    return simulate.build_graph(pts, spec.g.scaled(d.conn_scale), mode=mode,
                                tail_mass=tail_mass)

