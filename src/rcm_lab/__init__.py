"""Random connection models on the unit square, torus, and growing windows.

Poisson points connect independently at distance x with probability g(x);
the package simulates these graphs, couples torus and square realizations
edge-by-edge, and evaluates the isolation integrals that govern how many
isolated nodes survive at a given intensity.
"""

from .connfn import (ConnectionFunction, InconclusiveTailError,
                     NonConvergentError, TailClass, check_monotonicity,
                     classify_tail, effective_cutoff, from_callable,
                     from_config, integral_constant, load_tabulated_csv,
                     lognormal, omega_tail, tabulated, theta_tail, unit_disk)
from .experiments import (AggregateStats, ConfigError, SweepConfig,
                          TrialError, aggregate_from_records,
                          convergence_check, run_sweep, run_trial)
from .geometry import (Region, clipped_lens_difference_area,
                       lens_difference_area, lens_difference_derivative,
                       toroidal_distance)
from .models import (MODELS, DerivedParams, InvalidParamsError, ModelSpec,
                     derive, frame_region, realize)
from .quadrature import (IsolationIntegrals, expected_components_order2,
                         expected_isolated_infinite, expected_isolated_square,
                         expected_isolated_torus, inner_exposure,
                         isolation_report, truncation_limit)
from .simulate import (Census, MetricMismatchError, PointSet, RcmGraph,
                       boundary_coupling, build_graph, census,
                       isolated_count, sample_poisson,
                       window_truncation_census)

__version__ = "0.1.0"

__all__ = [
    "AggregateStats", "Census", "ConfigError", "ConnectionFunction",
    "DerivedParams", "InconclusiveTailError", "InvalidParamsError",
    "IsolationIntegrals", "MODELS", "MetricMismatchError", "ModelSpec",
    "NonConvergentError", "PointSet", "RcmGraph", "Region", "SweepConfig",
    "TailClass", "TrialError", "aggregate_from_records", "boundary_coupling",
    "build_graph", "census", "check_monotonicity", "classify_tail",
    "clipped_lens_difference_area", "convergence_check", "derive",
    "effective_cutoff", "expected_components_order2",
    "expected_isolated_infinite", "expected_isolated_square",
    "expected_isolated_torus", "frame_region", "from_callable", "from_config",
    "inner_exposure", "integral_constant", "isolated_count",
    "isolation_report", "lens_difference_area", "lens_difference_derivative",
    "load_tabulated_csv", "lognormal", "omega_tail", "realize", "run_sweep",
    "run_trial", "sample_poisson", "tabulated", "theta_tail",
    "toroidal_distance", "truncation_limit", "unit_disk",
    "window_truncation_census",
]
