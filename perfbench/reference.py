"""Regenerate the only stored references: simulated mean xi_2 per quad workload.

    python3 perfbench/reference.py          # rewrites perfbench/reference.json

Each reference is the mean number of order-2 components over square-frame
trials, with its standard error.  The trials are simulated here, apart from
rcm-lab: trial t draws from numpy's generator seeded with (seed, t), takes
Poisson(rho) uniform points in the square frame of side sqrt(rho / lambda),
finds near pairs with cKDTree and keeps each with probability g(distance).
A component of order 2 is an edge whose two ends both have degree 1.
"""

import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial import cKDTree

import checks
from workloads import WORKLOADS

PATH = Path(__file__).resolve().parent / "reference.json"

# Recorded seeds and trial counts.  40000 trials put the reference's
# standard error well below that of the estimate it is compared with.
RUNS = {"quad-disk": {"seed": 71001, "trials": 40000},
        "quad-lognormal": {"seed": 71002, "trials": 40000}}


def plain_g(cfg):
    """(g, reach, C) for a connection-function config, from the formulas."""
    p = cfg["params"]
    if cfg["family"] == "unit_disk":
        r0 = p["r0"]
        return (lambda d: np.where(d <= r0, 1.0, 0.0)), r0, math.pi * r0 * r0
    if cfg["family"] == "lognormal":
        sigma, eta, r0 = p["sigma"], p["eta"], p.get("r0", 1.0)
        return ((lambda d: checks.lognormal_g(d, sigma, eta, r0)),
                checks.lognormal_reach(sigma, eta, r0),
                checks.lognormal_constant(sigma, eta, r0))
    raise ValueError(f"no reference simulation for {cfg['family']}")


def simulate_xi2(cfg, rho, b, trials, seed):
    g, reach, C = plain_g(cfg)
    lam = (math.log(rho) + b) / C
    side = math.sqrt(rho / lam)
    counts = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        n = int(rng.poisson(rho))
        pos = rng.random((n, 2)) * side
        pairs = cKDTree(pos).query_pairs(reach, output_type="ndarray")
        d = np.hypot(*(pos[pairs[:, 0]] - pos[pairs[:, 1]]).T)
        pairs = pairs[rng.random(len(pairs)) < g(d)]
        deg = np.bincount(pairs.ravel(), minlength=n)
        counts[t] = np.sum((deg[pairs[:, 0]] == 1) & (deg[pairs[:, 1]] == 1))
    return float(counts.mean()), float(counts.std(ddof=1) / math.sqrt(trials))


def main():
    out = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "references": {}}
    for name, run in RUNS.items():
        wl = WORKLOADS[name]
        t0 = time.perf_counter()
        mean, se = simulate_xi2(wl["g"], wl["rho"], wl["b"], run["trials"],
                                run["seed"])
        out["references"][name] = {
            "g": wl["g"], "rho": wl["rho"], "b": wl["b"],
            "trials": run["trials"], "seed": run["seed"],
            "mean_xi2": mean, "se_xi2": se,
            "seconds": round(time.perf_counter() - t0, 1)}
        print(f"{name}: mean xi_2 {mean:.6f} +- {se:.6f}", file=sys.stderr)
    PATH.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
