import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from importlib.metadata import distributions
from pathlib import Path

import pytest

from rcm_lab import experiments
from rcm_lab.cli import main

DISK = '{"family": "unit_disk", "params": {"r0": 1.0}}'


def test_run_writes_outputs(tmp_path, capsys):
    cfg = {"g": {"family": "unit_disk", "params": {"r0": 1.0}},
           "models": ["square", "torus"], "rhos": [60.0], "trials": 4,
           "base_seed": 7, "out_dir": str(tmp_path / "unused")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "res"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "trials.jsonl").exists()
    with open(out / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    text = capsys.readouterr().out
    assert "summary.csv" in text and "mean_W" in text


def test_run_bad_config_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"g": {"family": "unit_disk"},
                                "models": ["nope"], "rhos": [10]}))
    assert main(["run", "--config", str(path)]) == 2
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("field, value", [
    ("base_seed", "7"), ("base_seed", 1.5), ("tail_mass", "x"),
    ("out_dir", 5), ("quad", "no"), ("trials", True), ("workers", True),
    ("rhos", [True]), ("rhos", [math.inf]), ("rhos", [0.5])])
def test_run_wrong_typed_field_exits_2_without_traceback(tmp_path, capsys,
                                                          field, value):
    cfg = {"g": {"family": "unit_disk", "params": {"r0": 1.0}},
           "models": ["square"], "rhos": [60.0], "trials": 2,
           "out_dir": str(tmp_path / "out")}
    cfg[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert field in lines[0]
    assert not (tmp_path / "out").exists()


def test_coupling_check_failure_exits_3(monkeypatch, capsys):
    real = experiments.census
    monkeypatch.setattr(experiments, "census",
                        lambda graph: replace(real(graph), W=real(graph).W + 1))
    assert main(["coupling", "--g", DISK, "--rho", "80", "--trials", "2",
                 "--seed", "3"]) == 3
    assert capsys.readouterr().err.startswith("trial failure: ")


def test_quad_command(tmp_path, capsys):
    assert main(["quad", "--g", DISK, "--rho", "1000", "--b", "0"]) == 0
    out = capsys.readouterr().out
    assert "EW (square)" in out and "EW (torus)" in out
    # torus line is exp(-b) = 1 for the disk
    line = [l for l in out.splitlines() if "EW (torus)" in l][0]
    assert abs(float(line.split("=")[1]) - 1.0) < 1e-9


def test_quad_has_no_model_option(capsys):
    # every frame shares the square's expectations, so quad takes none
    with pytest.raises(SystemExit) as exc:
        main(["quad", "--g", DISK, "--rho", "1000", "--model", "dense"])
    assert exc.value.code == 2
    assert "--model" in capsys.readouterr().err


def _table_error_line(out):
    lines = [l for l in out.splitlines() if l.startswith("table error")]
    assert len(lines) == 1
    return float(lines[0].split("=")[1].split()[0])


def test_quad_prints_exposure_table_error(capsys):
    logn = '{"family": "lognormal", "params": {"sigma": 0.25, "eta": 4.0}}'
    assert main(["quad", "--g", logn, "--rho", "100", "--rel-tol",
                 "1e-3"]) == 0
    assert 0.0 < _table_error_line(capsys.readouterr().out) <= 1e-12
    # the disk's exposures are closed forms: no table, no table error
    assert main(["quad", "--g", DISK, "--rho", "100"]) == 0
    assert _table_error_line(capsys.readouterr().out) == 0.0


def test_quad_prints_region_error(capsys):
    # the error that E(W) and its split reached, relative to each, as
    # isolation_report gives it
    from rcm_lab import ModelSpec, isolation_report, lognormal

    logn = '{"family": "lognormal", "params": {"sigma": 0.25, "eta": 4.0}}'
    assert main(["quad", "--g", logn, "--rho", "100", "--rel-tol",
                 "1e-3"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith("region error")]
    assert len(lines) == 1
    got = float(lines[0].split("=")[1].split()[0])
    rep = isolation_report(ModelSpec("square", 100.0, 0.0,
                                     lognormal(0.25, 4.0)), rel_tol=1e-3)
    assert got > 0.0
    assert got == pytest.approx(rep.tolerances["region_error"], rel=1e-2)


def test_quad_g_from_file(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(DISK)
    assert main(["quad", "--g", str(gpath), "--rho", "100"]) == 0
    assert "ratio" in capsys.readouterr().out


def test_quad_invalid_params_exit_2(capsys):
    # ln(2) - 1 < 0: inadmissible offset
    assert main(["quad", "--g", DISK, "--rho", "2", "--b", "-1"]) == 2
    assert main(["quad", "--g", '{"family": "nope"}', "--rho", "100"]) == 2
    assert main(["quad", "--g", "{not json", "--rho", "100"]) == 2
    # parameters misplaced at the top level must error, not default
    flat = '{"family": "unit_disk", "r0": 2.0}'
    assert main(["quad", "--g", flat, "--rho", "100"]) == 2


def _cli(*args, cwd=None):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "rcm_lab.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def test_classify_bad_g_param_exits_2_without_traceback():
    proc = _cli("classify", "--g",
                '{"family": "unit_disk", "params": {"radius": 1}}')
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "radius" in proc.stderr


def test_tabulated_tail_without_kind_exits_2_without_traceback(tmp_path):
    (tmp_path / "g.csv").write_text("0.5,1.0\n1.0,0.5\n")
    g = json.dumps({"family": "tabulated",
                    "params": {"path": "g.csv", "tail": {"a": 0.1, "p": 2}}})
    proc = _cli("classify", "--g", g, cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "kind" in proc.stderr


def test_tabulated_bad_row_exits_2_without_traceback(tmp_path):
    (tmp_path / "bad.csv").write_text("0.5,1.0\n1.0\n2.0,0.1\n")
    g = json.dumps({"family": "tabulated", "params": {"path": "bad.csv"}})
    proc = _cli("classify", "--g", g, cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "line 2" in proc.stderr


@pytest.mark.parametrize("args, word", [
    (("quad", "--rho", "100", "--rel-tol", "0"), "rel_tol"),
    (("quad", "--rho", "100", "--rel-tol", "-1"), "rel_tol"),
    (("components", "--rho", "50", "--samples", "-5"), "samples"),
    (("components", "--rho", "50", "--samples", "0"), "samples"),
    (("components", "--rho", "50", "--samples", "10", "--trials", "-1"),
     "trials"),
    (("coupling", "--rho", "80", "--trials", "0"), "trials"),
])
def test_bad_tolerance_or_count_exits_2_without_traceback(args, word):
    proc = _cli(*args, "--g", DISK)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert word in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["coupling", "components"])
def test_negative_seed_exits_2_naming_the_seed(command):
    proc = _cli(command, "--g", DISK, "--rho", "60", "--seed", "-3")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: seed must be a non-negative integer, got -3"]
    assert proc.stdout == ""


@pytest.mark.parametrize("b", ["nan", "inf", "-inf"])
def test_classify_non_finite_b_exits_2_without_traceback(b):
    proc = _cli("classify", "--g", DISK, "--b=" + b)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: b must be finite"]
    assert proc.stdout == ""


def test_components_failed_partner_draw_exits_2_without_traceback():
    # at rho = 1e12 the theta tail's radial envelope reaches so far past
    # the square that some partners are never drawn inside it
    proc = _cli("components", "--g",
                '{"family": "theta_tail", "params": {"a": 0.5}}',
                "--rho", "1e12", "--samples", "48", "--seed", "1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "partner draw" in proc.stderr and "theta_tail" in proc.stderr
    assert proc.stdout == ""


def test_classify_command(capsys):
    assert main(["classify", "--g", DISK]) == 0
    out = capsys.readouterr().out
    assert "little_o" in out and "E(W^T) limit" in out

    theta = '{"family": "theta_tail", "params": {"a": 0.5, "x0": 3.0}}'
    assert main(["classify", "--g", theta, "--b", "0"]) == 0
    out = capsys.readouterr().out
    assert "theta" in out

    omega = '{"family": "omega_tail", "params": {"p": 1.5, "x0": 3.0}}'
    assert main(["classify", "--g", omega]) == 0
    out = capsys.readouterr().out
    assert "omega" in out and "inf" in out


def test_coupling_command(capsys):
    assert main(["coupling", "--g", DISK, "--rho", "80", "--trials", "10",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "mean W_E" in out and "identity" in out


def test_components_command(capsys):
    assert main(["components", "--g", DISK, "--rho", "50",
                 "--samples", "300", "--seed", "1", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "E(xi_2) quadrature" in out and "mean xi_2 simulated" in out


def test_components_single_sample_and_trial_print_nan_error():
    proc = _cli("components", "--g", DISK, "--rho", "60", "--samples", "1",
                "--seed", "3", "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert all("(se nan" in line for line in lines)


def test_entry_point_installed(tmp_path):
    # An install registers the metadata that setuptools' egg_info writes;
    # build it from the source tree into tmp_path and read it back with the
    # same importlib.metadata API an installed interpreter would use.
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(tmp_path)],
        cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

    dists = list(distributions(path=[str(tmp_path)]))
    assert [d.metadata["Name"] for d in dists] == ["rcm-lab"]
    scripts = [ep for ep in dists[0].entry_points
               if ep.group == "console_scripts" and ep.name == "rcm-lab"]
    assert len(scripts) == 1
    ep = scripts[0]
    assert ep.value == "rcm_lab.cli:main"
    assert ep.load() is main
