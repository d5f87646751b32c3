import csv
import json
import os
import subprocess
import sys
from importlib.metadata import distributions
from pathlib import Path

import pytest

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


def test_quad_command(tmp_path, capsys):
    assert main(["quad", "--g", DISK, "--rho", "1000", "--b", "0"]) == 0
    out = capsys.readouterr().out
    assert "EW (square)" in out and "EW (torus)" in out
    # torus line is exp(-b) = 1 for the disk
    line = [l for l in out.splitlines() if "EW (torus)" in l][0]
    assert abs(float(line.split("=")[1]) - 1.0) < 1e-9


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
