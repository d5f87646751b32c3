import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rcm_lab import experiments
from rcm_lab.connfn import unit_disk
from rcm_lab.experiments import (SUMMARY_HEADER, AggregateStats, ConfigError,
                                 SweepConfig, TrialError,
                                 aggregate_from_records, convergence_check,
                                 run_sweep, run_trial, write_summary_csv)
from rcm_lab.models import ModelSpec

DISK_CFG = {"family": "unit_disk", "params": {"r0": 1.0}}


def _config(**kw):
    base = dict(g=dict(DISK_CFG), models=["square"], rhos=[100.0], trials=5,
                base_seed=1)
    base.update(kw)
    return SweepConfig(**base)


def test_config_accepts_good_input():
    cfg = _config(models=["square", "torus"], rhos=[50, 100.0], b=0.5,
                  workers=2, mode="cells", tail_mass=1e-4)
    assert cfg.connection()(0.5) == 1.0


@pytest.mark.parametrize("bad", [
    dict(g={"r0": 1.0}),
    dict(g="disk"),
    dict(g={"family": "no_such_family"}),
    dict(g={"family": "unit_disk", "r0": 2.0}),  # params not nested
    dict(models=[]),
    dict(models=["hexagon"]),
    dict(rhos=[]),
    dict(rhos=[-3.0]),
    dict(b=math.inf),
    dict(trials=0),
    dict(trials=2.5),
    dict(mode="quick"),
    dict(workers=-1),
    dict(tail_mass=0.0),
    dict(tail_mass=1.5),
])
def test_config_rejects_bad_input(bad):
    with pytest.raises(ConfigError):
        _config(**bad)


@pytest.mark.parametrize("bad, name", [
    (dict(models=["square", "square"]), "models"),
    (dict(models=["torus", "square", "torus"]), "models"),
    (dict(rhos=[50, 50.0]), "rhos"),
    (dict(rhos=[1e2, 30.0, 100]), "rhos"),
    (dict(base_seed=-3), "base_seed"),
])
def test_config_rejects_repeats_and_negative_seeds_by_name(bad, name):
    # a repeated grid entry would run the same seeds again and report them
    # in one summary row with twice the trials and about half the se_W; a
    # negative seed would fail in the first trial with numpy's message
    with pytest.raises(ConfigError, match=name):
        _config(**bad)


def test_summary_header_follows_aggregate_fields():
    # summary.csv's columns: the AggregateStats fields in order, mean_xi
    # spread over one column per order
    assert SUMMARY_HEADER == [
        "model", "rho", "b", "trials", "mean_W", "se_W", "quad_EW",
        "quad_EW_torus", "mean_W_T", "mean_W_E", "mean_xi2", "mean_xi3",
        "mean_xi4", "mean_xi5", "mean_xi6", "mean_xi7", "mean_xi8",
        "zscore_W"]


def test_from_dict_unknown_and_missing_fields():
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"g": DISK_CFG, "models": ["square"],
                               "rhos": [10], "bogus": 1})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"g": DISK_CFG, "models": ["square"]})


def test_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"g": DISK_CFG, "models": ["torus"],
                                "rhos": [40.0], "trials": 3}))
    cfg = SweepConfig.from_json(str(path))
    assert cfg.models == ["torus"] and cfg.trials == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        SweepConfig.from_json(str(bad))
    with pytest.raises(ConfigError):
        SweepConfig.from_json(str(tmp_path / "missing.json"))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        SweepConfig.from_json(str(arr))


def test_run_trial_record_shapes():
    g = unit_disk(1.0)
    sq = run_trial(ModelSpec(model="square", rho=80.0, b=0.0, g=g), seed=3)
    assert sq["model"] == "square" and sq["seed"] == 3
    assert sq["W"] == sq["xi"].get("1", 0)
    assert sum(int(k) * v for k, v in sq["xi"].items()) == sq["n"]

    to = run_trial(ModelSpec(model="torus", rho=80.0, b=0.0, g=g), seed=3)
    assert to["W"] == to["W_T"] + to["W_E"] and to["W_E"] >= 0
    # same seed: the coupled square graph is the square trial's graph
    assert to["W"] == sq["W"] and to["xi"] == sq["xi"]

    wi = run_trial(ModelSpec(model="window", rho=80.0, b=0.0, g=g), seed=3)
    assert 0 <= wi["W"] <= wi["W_core"] <= wi["n_core"] <= wi["n"]


def test_run_trial_coupling_check_can_fail(monkeypatch):
    # census and the coupling's degrees count W independently; a census
    # that disagrees must fail the trial
    real = experiments.census
    monkeypatch.setattr(experiments, "census",
                        lambda graph: replace(real(graph), W=real(graph).W + 1))
    spec = ModelSpec(model="torus", rho=80.0, b=0.0, g=unit_disk(1.0))
    with pytest.raises(TrialError, match="coupling check failed at seed 3"):
        run_trial(spec, seed=3)


def test_aggregate_by_hand():
    recs = [
        {"model": "square", "rho": 10.0, "b": 0.0, "W": 2,
         "xi": {"1": 2, "2": 1}},
        {"model": "square", "rho": 10.0, "b": 0.0, "W": 4,
         "xi": {"1": 4}},
    ]
    aggs = aggregate_from_records(recs)
    assert len(aggs) == 1
    a = aggs[0]
    assert a.trials == 2 and a.mean_W == 3.0
    assert a.se_W == pytest.approx(np.std([2, 4], ddof=1) / math.sqrt(2))
    assert a.mean_xi[2] == 0.5 and a.mean_xi[3] == 0.0
    assert math.isnan(a.zscore_W)

    quad = {("square", 10.0): (3.5, 1.0, 3.5)}
    a2 = aggregate_from_records(recs, quad=quad)[0]
    assert a2.quad_EW == 3.5
    assert a2.zscore_W == pytest.approx((3.0 - 3.5) / a.se_W)


def test_run_sweep_outputs(tmp_path):
    cfg = _config(models=["square", "torus"], rhos=[60.0], trials=6,
                  out_dir=str(tmp_path / "res"))
    records, aggs = run_sweep(cfg)
    assert len(records) == 12 and len(aggs) == 2

    lines = (tmp_path / "res" / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 12
    first = json.loads(lines[0])
    assert first["model"] == "square" and first["seed"] == cfg.base_seed

    with open(tmp_path / "res" / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SUMMARY_HEADER
    assert len(rows) == 3
    by_model = {r[0]: r for r in rows[1:]}
    assert set(by_model) == {"square", "torus"}
    # the quadrature companions are filled in and shared across models
    assert by_model["square"][6] == by_model["torus"][6]
    # torus rows carry the coupling split; square rows leave it blank
    assert by_model["torus"][8] != "" and by_model["square"][8] == ""


def test_run_sweep_deterministic_and_parallel(tmp_path):
    cfg1 = _config(trials=4, out_dir=str(tmp_path / "a"), quad=False)
    rec1, _ = run_sweep(cfg1)
    cfg2 = _config(trials=4, out_dir=str(tmp_path / "b"), quad=False)
    rec2, _ = run_sweep(cfg2)
    assert rec1 == rec2
    cfg3 = _config(trials=4, out_dir=str(tmp_path / "c"), quad=False,
                   workers=2)
    rec3, _ = run_sweep(cfg3)
    assert rec3 == rec1
    assert ((tmp_path / "a" / "trials.jsonl").read_text()
            == (tmp_path / "c" / "trials.jsonl").read_text())


def test_write_summary_blank_nans(tmp_path):
    agg = AggregateStats(model="square", rho=10.0, b=0.0, trials=1,
                         mean_W=2.0, se_W=math.nan)
    path = tmp_path / "s.csv"
    write_summary_csv(str(path), [agg])
    row = list(csv.reader(open(path)))[1]
    assert row[5] == "" and row[6] == ""


def test_convergence_check_plain():
    ok, info = convergence_check([2.0, 1.5, 1.2], 1.0)
    assert ok and info["deviations"] == [1.0, 0.5, pytest.approx(0.2)]
    ok, _ = convergence_check([1.1, 1.5], 1.0)
    assert not ok


def test_convergence_check_with_ses():
    ok, info = convergence_check([1.2, 0.9], 1.0, ses=[0.1, 0.05])
    assert ok and info["z_scores"] == [pytest.approx(2.0), pytest.approx(2.0)]
    ok, _ = convergence_check([1.5, 1.0], 1.0, ses=[0.1, 0.1])
    assert not ok
    with pytest.raises(ValueError):
        convergence_check([1.0], 1.0, ses=[0.0])


def test_import_leaves_process_pool_unloaded():
    # a sweep imports its process pool only when it runs workers; the
    # workers=2 tests above take that path
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(experiments.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rcm_lab; "
         "print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "False"
