import json
import math

import numpy as np
import pytest

from rcm_lab.connfn import (InconclusiveTailError, NonConvergentError,
                            check_monotonicity, classify_tail,
                            effective_cutoff, from_callable, from_config,
                            integral_constant, load_tabulated_csv, lognormal,
                            omega_tail, tabulated, theta_tail, unit_disk,
                            zero_function)


def test_unit_disk_values():
    g = unit_disk(2.0)
    x = np.array([0.0, 1.0, 2.0, 2.0000001, 10.0])
    assert list(g(x)) == [1.0, 1.0, 1.0, 0.0, 0.0]
    assert g.support_radius == 2.0
    with pytest.raises(ValueError):
        unit_disk(0.0)


def test_unit_disk_constant_is_pi_r2():
    assert integral_constant(unit_disk(1.0)) == pytest.approx(math.pi,
                                                              rel=1e-12)
    assert integral_constant(unit_disk(3.0)) == pytest.approx(9 * math.pi,
                                                              rel=1e-12)


def test_lognormal_shape():
    g = lognormal(sigma=2.0, eta=2.0, r0=1.5)
    assert g(1.5) == pytest.approx(0.5, rel=1e-12)
    assert g(0.0) == 1.0
    x = np.geomspace(0.01, 100.0, 200)
    v = g(x)
    assert np.all(np.diff(v) <= 1e-15)
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert check_monotonicity(g)


@pytest.mark.parametrize("sigma, eta, r0", [(0.25, 4.0, 1.0),
                                             (1.5, 1.0, 1.0),
                                             (2.0, 2.0, 1.5)])
def test_lognormal_eval_matches_guarded_formula(sigma, eta, r0):
    # lognormal evaluates 1/2 erfc(k log10(x / r0)) straight, letting
    # log10(0) = -inf give g(0) = 1; the same values, element for element,
    # as the formula that masks x = 0 out of the logarithm
    from scipy.special import erfc

    rng = np.random.default_rng(41)
    x = np.concatenate([[0.0, 5e-324, 1e-300, 1e300, np.inf],
                        rng.random(20000) * 5.0 * r0,
                        10.0 ** rng.uniform(-300.0, 300.0, 20000)])
    kslope = 10.0 * eta / (sigma * math.sqrt(2.0))
    with np.errstate(divide="ignore"):
        t = np.log10(np.where(x > 0.0, x, np.nan) / r0)
    t = np.where(x > 0.0, t, -np.inf)
    want = 0.5 * erfc(kslope * t)
    got = lognormal(sigma=sigma, eta=eta, r0=r0)(x)
    assert np.array_equal(got, want)
    assert got[0] == 1.0


def test_scaled_rescales_distance():
    g = lognormal(sigma=1.0, eta=2.0)
    s = g.scaled(2.5)
    x = np.array([0.3, 1.0, 4.0])
    assert np.allclose(s(x), g(x / 2.5), rtol=1e-14)
    # plane integral picks up the square of the length factor
    assert integral_constant(s) == pytest.approx(
        2.5 ** 2 * integral_constant(g), rel=1e-8)


@pytest.mark.parametrize("f1, f2", [(0.5, 0.6), (0.7, 1.3)])
def test_twice_scaled_power_log_tail_matches_single_scaling(f1, f2):
    # the analytic tail is found through every level of scaling, so the
    # numeric doubling tail (which cannot converge on 1/(x^2 ln^2 x)) is
    # never reached
    g = theta_tail(a=0.5)
    twice, once = g.scaled(f1).scaled(f2), g.scaled(f1 * f2)
    assert integral_constant(twice) == pytest.approx(integral_constant(once),
                                                     rel=1e-10)
    # x_from * 0.7 / 0.7 rounds below x_from: the tail must still be found
    assert integral_constant(g.scaled(f1)) == pytest.approx(
        f1 * f1 * integral_constant(g), rel=1e-9)
    for mass in (1e-12, 1e-3, 0.1):
        assert effective_cutoff(twice, mass) == pytest.approx(
            effective_cutoff(once, mass), rel=1e-10)


def test_theta_tail_is_exact_past_x0():
    a = 0.5
    g = theta_tail(a=a)
    x = np.geomspace(3.001, 1e8, 50)
    f = g(x) * x * x * np.log(x) ** 2
    assert np.allclose(f, a, rtol=1e-12)
    assert g(2.9) == 1.0  # head value up to and including x0
    assert g(3.0) == 1.0


def test_theta_tail_analytic_integral():
    g = theta_tail(a=0.5)
    for R in (10.0, 1e4, 1e12):
        assert g.analytic_tail_integral(R) == pytest.approx(
            2.0 * math.pi * 0.5 / math.log(R), rel=1e-12)


def test_omega_tail_diagnostic_grows():
    g = omega_tail(p=1.5)
    x = np.geomspace(10.0, 1e9, 40)
    f = g(x) * x * x * np.log(x) ** 2
    assert np.all(np.diff(f) > 0.0)
    with pytest.raises(ValueError):
        omega_tail(p=2.0)
    with pytest.raises(ValueError):
        omega_tail(p=1.0)


def test_power_log_diagnostic_strictly_decreases_below_two():
    # for a tail a / (x^2 log^p x) with p > 2 the diagnostic x^2 log^2 x g(x)
    # must fall strictly
    g = from_callable(lambda x: np.minimum(1.0, 1.0 / (x * x * np.log(np.maximum(x, 1.1)) ** 3.0)))
    x = np.geomspace(20.0, 1e7, 30)
    f = g(x) * x * x * np.log(x) ** 2
    assert np.all(np.diff(f) < 0.0)


def test_integral_constant_infinite_support():
    # 2 pi int x e^{-x^2} dx = pi
    g = from_callable(lambda x: np.exp(-np.asarray(x) ** 2))
    assert integral_constant(g) == pytest.approx(math.pi, rel=1e-9)


def test_integral_constant_power_log_uses_analytic_tail():
    g = theta_tail(a=0.1, x0=3.0)
    C = integral_constant(g)
    head, _ = _head_quad(g, 3.0)
    tail = g.analytic_tail_integral(3.0)
    assert C == pytest.approx(head + tail, rel=1e-9)


def _head_quad(g, R):
    from scipy.integrate import quad
    val, err = quad(lambda x: x * g(x), 0.0, R, points=[1.0, 2.0],
                    epsabs=0.0, epsrel=1e-11)
    return 2.0 * math.pi * val, err


def test_integral_constant_raises_for_nonintegrable():
    g = from_callable(lambda x: 1.0 / (1.0 + np.asarray(x) ** 2))
    with pytest.raises(NonConvergentError):
        integral_constant(g)


def test_integral_constant_rejects_zero():
    with pytest.raises(ValueError):
        integral_constant(zero_function())
    with pytest.raises(ValueError):
        integral_constant(unit_disk(1.0), rel_tol=0.5)


def test_classify_little_o():
    assert classify_tail(unit_disk(1.0)).kind == "little_o"
    assert classify_tail(lognormal(sigma=1.0, eta=2.0)).kind == "little_o"


def test_classify_theta_recovers_level():
    for a in (0.05, 0.5, 3.0):
        tc = classify_tail(theta_tail(a=a))
        assert tc.kind == "theta"
        assert tc.limit_estimate == pytest.approx(a, rel=0.01)


def test_classify_omega():
    tc = classify_tail(omega_tail(p=1.5))
    assert tc.kind == "omega"


def test_classify_inconclusive_for_oscillation():
    def osc(x):
        x = np.maximum(np.asarray(x, dtype=float), 1.5)
        body = (1.0 + 0.8 * np.sin(np.log(x))) / (x * x * np.log(x) ** 2)
        return np.minimum(1.0, body)

    g = from_callable(osc)
    with pytest.raises(InconclusiveTailError):
        classify_tail(g)


def test_effective_cutoff_basics():
    assert effective_cutoff(unit_disk(1.5), 1e-6) == 1.5
    # the numeric search lands on doubling-grid points, so the cutoff is a
    # step function of tail_mass: non-decreasing as the target shrinks
    gl = lognormal(sigma=3.0, eta=1.0)
    cuts = [effective_cutoff(gl, tm) for tm in (0.5, 1e-1, 1e-3, 1e-12)]
    assert all(math.isfinite(c) and c > 0.0 for c in cuts)
    assert all(a <= b for a, b in zip(cuts, cuts[1:]))
    assert cuts[-1] > cuts[0]
    # mass beyond the cutoff really is below the requested share
    C = integral_constant(gl)
    assert _tail_mass(gl, effective_cutoff(gl, 1e-3)) <= 1e-3 * C


def _tail_mass(g, R):
    from scipy.integrate import quad
    val, _ = quad(lambda x: x * g(x), R, math.inf, epsabs=0.0, epsrel=1e-10)
    return 2.0 * math.pi * val


# C and the cutoffs at tail masses 0.5, 1e-1, 1e-3, 1e-6, 1e-12 and 1e-16 as
# computed before the doubling panels moved into one array quadrature
@pytest.mark.parametrize("g, C, cuts", [
    (unit_disk(1.0), 3.1415926535897833, [1.0] * 6),
    (lognormal(0.25, 4.0), 3.14289420470396, [1, 1, 2, 2, 2, 2]),
    (lognormal(1.5, 1.0), 3.988101490792077, [1, 2, 4, 8, 16, 32]),
    (lognormal(3.0, 1.0), 8.1585915159295, [2, 8, 32, 64, 512, 1024]),
    (from_callable(lambda x: np.exp(-np.asarray(x) ** 2)),
     3.1415926535897833, [1, 2, 4, 4, 8, 8]),
    (theta_tail(0.5), 31.13393474968818,
     [3, 3, 6.649746320714289e+43, math.inf, math.inf, math.inf]),
], ids=["unit_disk", "lognormal-0.25-4", "lognormal-1.5-1",
        "lognormal-3-1", "gaussian", "theta_tail-0.5"])
def test_constant_and_cutoffs_pinned(g, C, cuts):
    assert integral_constant(g) == pytest.approx(C, rel=1e-14, abs=0.0)
    got = [effective_cutoff(g, tm)
           for tm in (0.5, 1e-1, 1e-3, 1e-6, 1e-12, 1e-16)]
    assert got == [float(c) for c in cuts]


def test_numeric_tail_cutoff_is_one_array_quadrature(monkeypatch):
    import rcm_lab._quadcore as qc
    import rcm_lab.connfn as cf

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    batched = counting("batched", qc.batched_quad)
    adaptive = counting("adaptive", qc.adaptive_quad)
    for mod in (qc, cf):
        monkeypatch.setattr(mod, "batched_quad", batched)
        monkeypatch.setattr(mod, "adaptive_quad", adaptive)
    # an empty cache, so the cutoff is solved here and not read back
    monkeypatch.setattr(cf, "_CUTOFF_CACHE", {})
    effective_cutoff(lognormal(0.25, 4.0), 1e-12)
    assert calls == ["batched"]


def test_effective_cutoff_power_log_overflows_to_inf():
    assert effective_cutoff(theta_tail(a=0.5), 1e-9) == math.inf


def test_tabulated_interp_and_tails():
    x = np.array([0.5, 1.0, 2.0])
    v = np.array([1.0, 0.6, 0.1])
    g = tabulated(x, v)
    assert g(0.1) == 1.0
    assert g(0.75) == pytest.approx(0.8)
    assert g(2.0) == pytest.approx(0.1)
    assert g(2.1) == 0.0
    assert g.support_radius == 2.0

    gp = tabulated(x, v, tail_rule=("power_log", 0.05, 2.0))
    assert gp(10.0) == pytest.approx(0.05 / (100.0 * math.log(10.0) ** 2))
    assert math.isinf(gp.support_radius)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        tabulated(np.array([1.0, 2.0]), np.array([0.2, 0.6]))  # increasing
    with pytest.raises(ValueError):
        tabulated(np.array([2.0, 1.0]), np.array([1.0, 0.5]))  # x not sorted
    with pytest.raises(ValueError):
        tabulated(np.array([1.0, 2.0]), np.array([1.5, 0.5]))  # g > 1


def test_load_tabulated_csv(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("# connection profile\nx,g\n0.5,1.0\n1.0,0.6\n2.0,0.1\n")
    g = load_tabulated_csv(p)
    assert g(0.75) == pytest.approx(0.8)
    assert g(5.0) == 0.0


def test_load_tabulated_csv_rejects_short_row(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("x,g\n0.5,1.0\n1.0\n2.0,0.1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_tabulated_csv(p)


def test_load_tabulated_csv_rejects_unparsed_sample(tmp_path):
    # only the first row may be a header; a later bad row is not skipped
    p = tmp_path / "g.csv"
    p.write_text("# profile\n0.5,1.0\n1.0,abc\n2.0,0.1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_tabulated_csv(p)


def test_from_config_families(tmp_path):
    assert from_config({"family": "unit_disk", "params": {"r0": 2.0}})(1.9) == 1.0
    assert from_config({"family": "lognormal",
                        "params": {"sigma": 1.0, "eta": 2.0}})(0.0) == 1.0
    assert from_config({"family": "theta_tail", "params": {"a": 0.5}}).kind == "theta_tail"
    assert from_config({"family": "omega_tail", "params": {"p": 1.5}}).kind == "omega_tail"
    p = tmp_path / "g.csv"
    p.write_text("0.5,1.0\n1.0,0.5\n")
    cfg = {"family": "tabulated", "params": {"path": str(p)}}
    assert from_config(cfg)(0.75) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        from_config({"params": {}})
    with pytest.raises(ValueError):
        from_config({"family": "pentagon"})


def test_config_json_round_trip(tmp_path):
    cfg = {"family": "theta_tail", "params": {"a": 0.25, "x0": 4.0}}
    text = json.dumps(cfg)
    g = from_config(json.loads(text))
    assert g.params["a"] == 0.25 and g.params["x0"] == 4.0


def test_signature_distinguishes_functions():
    assert unit_disk(1.0).signature() == unit_disk(1.0).signature()
    assert unit_disk(1.0).signature() != unit_disk(1.1).signature()
    assert unit_disk(1.0).signature() != lognormal(1.0, 2.0).signature()


def test_check_monotonicity_flags_bumps():
    bad = from_callable(lambda x: np.where((np.asarray(x) > 2.0)
                                           & (np.asarray(x) < 3.0), 0.9, 0.5))
    assert not check_monotonicity(bad)


def test_import_leaves_scipy_special_unloaded():
    # only lognormal's evaluation needs erfc; a fresh import must not pay
    # for scipy.special
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rcm_lab

    src = str(Path(rcm_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, rcm_lab; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "False"
