"""Each benchmark check passes on rcm-lab's output and fails on a corrupted one.

    python3 -m pytest -q perfbench/test_checks.py

Small inputs keep the file under a minute; the checks are the ones run.py
applies to the full workloads.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import rcm_lab  # noqa: E402
from workloads import DISK, LOGNORMAL, THETA  # noqa: E402


def sweep_records(tmp_path, g, rho, trials=2):
    cfg = rcm_lab.SweepConfig(g=g, models=["torus"], rhos=[rho], trials=trials,
                              base_seed=5, mode="cells", quad=False,
                              out_dir=str(tmp_path))
    rcm_lab.run_sweep(cfg)
    with open(tmp_path / "trials.jsonl") as fh:
        return [json.loads(line) for line in fh], cfg


def torus_spec(g, rho):
    return rcm_lab.ModelSpec("torus", rho, 0.0,
                             rcm_lab.from_config(g)).with_constant()


def test_disk_record_check_catches_changed_w(tmp_path):
    records, _ = sweep_records(tmp_path, DISK, 2e3)
    spec = torus_spec(DISK, 2e3)
    d = rcm_lab.derive(spec)

    def problems(rec):
        pts = rcm_lab.sample_poisson(rcm_lab.frame_region(spec), d.density,
                                     rec["seed"],
                                     expected_count=d.expected_nodes)
        return (checks.check_record_identities(rec)
                + checks.check_disk_record(rec, pts.positions, d.side, 1.0))

    assert all(problems(rec) == [] for rec in records)
    records[1]["W"] += 1
    assert problems(records[1])


def test_theta_record_identities_catch_changed_w(tmp_path):
    records, _ = sweep_records(tmp_path, THETA, 300.0)
    assert all(checks.check_record_identities(rec) == [] for rec in records)
    records[0]["W"] += 1
    assert checks.check_record_identities(records[0])


def test_census_check_catches_dropped_edge(tmp_path):
    records, _ = sweep_records(tmp_path, THETA, 300.0, trials=1)
    rec = records[0]
    graph = rcm_lab.realize(torus_spec(THETA, 300.0), rec["seed"],
                            mode="cells")
    square = rcm_lab.boundary_coupling(graph)[0].edges
    assert checks.check_coupled_census(rec, graph.n, graph.edges, square) == []
    # Drop an edge to a degree-1 node: it always splits a component.
    deg = np.bincount(square.ravel(), minlength=graph.n)
    leaf = np.nonzero((deg[square[:, 0]] == 1) | (deg[square[:, 1]] == 1))[0][0]
    dropped = np.delete(square, leaf, axis=0)
    assert checks.check_coupled_census(rec, graph.n, graph.edges, dropped)


def test_disk_ew_checks_catch_scaled_value():
    rho = 1e6
    spec = rcm_lab.ModelSpec("square", rho, 0.0,
                             rcm_lab.unit_disk(1.0)).with_constant()
    ew = rcm_lab.expected_isolated_square(spec, rel_tol=1e-6)
    ewt = rcm_lab.expected_isolated_torus(spec)
    grid = checks.riemann_ew_disk(rho, 0.0, 1.0, 2048)
    coarse = checks.riemann_ew_disk(rho, 0.0, 1.0, 1024)
    assert checks.check_ew(ew, grid, coarse, 1e-6, "EW") == []
    assert checks.check_ew(ew * (1 + 1e-3), grid, coarse, 1e-6, "EW")
    assert checks.check_torus_ew(ewt, 0.0, "EW_T") == []
    assert checks.check_torus_ew(ewt * (1 + 1e-3), 0.0, "EW_T")


def test_lognormal_ew_check_catches_scaled_value():
    # The check allows the stated rel_tol (1e-3) plus the grid error, so a
    # 1e-3 scaling sits at the edge of what it lets through; 2e-3 does not.
    p = LOGNORMAL["params"]
    spec = rcm_lab.ModelSpec("square", 1e2, 0.0,
                             rcm_lab.from_config(LOGNORMAL)).with_constant()
    ew = rcm_lab.expected_isolated_square(spec, rel_tol=1e-3)
    grid = checks.grid_ew_lognormal(p["sigma"], p["eta"], 1.0, 1e2, 0.0, 2048)
    coarse = checks.grid_ew_lognormal(p["sigma"], p["eta"], 1.0, 1e2, 0.0,
                                      1024)
    assert checks.check_ew(ew, grid, coarse, 1e-3, "EW") == []
    for scale in (1 + 2e-3, 1 - 2e-3):
        assert checks.check_ew(ew * scale, grid, coarse, 1e-3, "EW")


def test_xi2_check_catches_shift():
    ref = json.loads((HERE / "reference.json").read_text())
    ref = ref["references"]["quad-disk"]
    spec = rcm_lab.ModelSpec("square", ref["rho"], ref["b"],
                             rcm_lab.from_config(ref["g"])).with_constant()
    est, se = rcm_lab.expected_components_order2(spec, samples=4000, seed=3)
    assert checks.check_xi2(est, se, ref["mean_xi2"], ref["se_xi2"], "xi2") == []
    shift = 10.0 * math.hypot(se, ref["se_xi2"])
    for sign in (1.0, -1.0):
        assert checks.check_xi2(est + sign * shift, se, ref["mean_xi2"],
                                ref["se_xi2"], "xi2")


def test_theta_expectations_match_closed_form_constant():
    # C of theta_tail(a, 3, 1): pi x0^2 for the flat head plus 2 pi a / ln x0.
    want = math.pi * 9.0 + 2.0 * math.pi * 0.5 / math.log(3.0)
    assert checks.theta_constant(0.5, 3.0, 1.0) == pytest.approx(want,
                                                                 rel=1e-10)
