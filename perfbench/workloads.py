"""The four benchmark workloads.  Each stresses different layers:

sim-disk-torus   cell candidates, torus distances, the union-find census and
                 the boundary coupling; no quadrature, no all-pairs scan.
sim-theta-torus  the infinite cutoff of theta_tail sends build_graph to the
                 all-pairs scan, so pair uniforms and pair decoding dominate.
quad-disk        per-point exposure quadrature (E(W)) and the closed-form
                 disk overlap kernels (xi_2); the graph layers are idle.
quad-lognormal   the generic-g exposure integrator and _cross_mass_generic.

A sim round is one serial run_sweep of ``trials`` coupled torus trials; a
quad round is one E(W) solve on the square, one on the torus and one xi_2
estimate of ``samples`` importance samples.
"""

DISK = {"family": "unit_disk", "params": {"r0": 1.0}}
THETA = {"family": "theta_tail", "params": {"a": 0.5}}
LOGNORMAL = {"family": "lognormal", "params": {"sigma": 0.25, "eta": 4.0}}

WORKLOADS = {
    "sim-disk-torus": {"kind": "sim", "g": DISK, "rho": 1e5, "b": 0.0,
                       "trials": 1},
    "sim-theta-torus": {"kind": "sim", "g": THETA, "rho": 2e3, "b": 0.0,
                        "trials": 2},
    # rel_tol 1e-6 is expected_isolated_square's default, passed explicitly
    # so the check and the solve use the same figure.
    "quad-disk": {"kind": "quad", "g": DISK, "rho": 1e3, "b": 0.0,
                  "rel_tol": 1e-6, "samples": 20000},
    # rel_tol 1e-3 keeps a solve near 8 s; 3e-4 takes 36 s.  At 48 samples
    # the xi_2 standard error is not reliable: over xi_2 seeds 1000..20000
    # one estimate in twenty lies more than 4 combined standard errors from
    # the simulated mean.  A check that fails on some seeds cannot be kept,
    # so xi_2 here always uses one such seed (15000: 0.576 +- 0.084 against
    # 1.065 +- 0.005) and is counted as a failed operation in every round.
    "quad-lognormal": {"kind": "quad", "g": LOGNORMAL, "rho": 1e2, "b": 0.0,
                       "rel_tol": 1e-3, "samples": 48, "xi2_seed": 15000},
}

# Sweep settings shared by both sim workloads.
SIM_MODE = "cells"
TAIL_MASS = 1e-6


def trial_seed(seed, round_index, trials):
    """First trial seed of a sim round; rounds never share a trial seed."""
    return 1000 * int(seed) + trials * round_index


def xi2_seed(wl, seed, round_index):
    if "xi2_seed" in wl:
        return wl["xi2_seed"]
    return 1000 * int(seed) + round_index
