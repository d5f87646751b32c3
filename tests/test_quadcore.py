import math

import numpy as np
import pytest
from scipy.integrate import quad

from rcm_lab._quadcore import (adaptive_quad, batched_quad, fixed_tensor_quad,
                               nested_quad)


def _reference(f, a, b, breakpoints=()):
    """QUADPACK's adaptive GK21 (scipy) at rel 1e-12, split at the
    breakpoints strictly inside (a, b)."""
    inside = [p for p in breakpoints if a < p < b]
    val, _ = quad(f, a, b, points=inside or None, epsabs=0.0, epsrel=1e-12,
                  limit=500)
    return val


def test_polynomial_exact():
    val, err = adaptive_quad(lambda x: x * x, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert err < 1e-10


def test_sine():
    val, _ = adaptive_quad(np.sin, 0.0, math.pi, rel_tol=1e-12)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_kink_with_breakpoint():
    f = lambda x: np.abs(x - 1.0 / 3.0)
    want = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
    val, _ = adaptive_quad(f, 0.0, 1.0, rel_tol=1e-12, breakpoints=[1.0 / 3.0])
    assert val == pytest.approx(want, rel=1e-13)


def test_step_discontinuity():
    f = lambda x: np.where(x < 0.7, 1.0, 3.0)
    val, _ = adaptive_quad(f, 0.0, 1.0, rel_tol=1e-12, breakpoints=[0.7])
    assert val == pytest.approx(0.7 + 3.0 * 0.3, rel=1e-13)


def test_sqrt_singularity():
    val, _ = adaptive_quad(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0,
                           rel_tol=1e-9)
    assert val == pytest.approx(2.0, rel=1e-6)


def test_empty_interval():
    assert adaptive_quad(np.sin, 1.0, 1.0) == (0.0, 0.0)
    assert adaptive_quad(np.sin, 2.0, 1.0) == (0.0, 0.0)


def test_batched_matches_adaptive():
    cases = [
        (lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 5.0, ()),
        (lambda x: np.abs(x - 0.25) ** 0.5, 0.0, 1.0, (0.25,)),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0, ()),
    ]
    for f, a, b, brk in cases:
        vb, _ = adaptive_quad(f, a, b, rel_tol=1e-11, breakpoints=brk)
        assert vb == pytest.approx(_reference(f, a, b, brk), rel=1e-9)


def test_batched_flat_function():
    val, err = adaptive_quad(lambda x: np.full_like(x, 2.0), 0.0, 3.0)
    assert val == pytest.approx(6.0, rel=1e-14)
    assert err <= 1e-12


def test_tensor_separable():
    val, _ = fixed_tensor_quad(lambda x, y: x * y, 0.0, 1.0, 0.0, 2.0,
                               rel_tol=1e-12)
    assert val == pytest.approx(0.5 * 2.0, rel=1e-12)


def test_tensor_with_breaks():
    f = lambda x, y: np.where(x < 0.5, 1.0, 0.0) * np.ones_like(y)
    val, _ = fixed_tensor_quad(f, 0.0, 1.0, 0.0, 1.0, rel_tol=1e-11,
                               xbreaks=(0.5,))
    assert val == pytest.approx(0.5, rel=1e-12)


def test_batched_array_matches_scalar_calls():
    # a kinked family of integrands, ragged breakpoint rows (NaN-padded,
    # with repeats and points outside [a, b]) and one empty interval (b < a)
    c = np.array([0.5, 1.0, 2.0, 3.0, 0.7, 1.5])
    p = np.array([0.25, 0.6, 0.1, 0.9, 0.5, 0.3])
    a = np.array([0.0, -1.0, 0.0, 0.2, 1.0, 0.0])
    b = np.array([5.0, 1.0, 1.0, 2.5, 0.5, 3.0])
    nan = np.nan
    brk = np.array([[nan, nan, nan],
                    [0.6, 0.6, nan],
                    [0.1, -3.0, 7.0],
                    [0.9, 2.0, 1.0],
                    [0.5, nan, nan],
                    [0.3, 1.0, 2.0]])

    def fk(x, k):
        return np.exp(-c[k] * x) * np.sin(3.0 * x) + np.abs(x - p[k]) ** 0.5

    vals, errs = batched_quad(fk, a, b, rel_tol=1e-11, breakpoints=brk)
    assert vals.shape == errs.shape == a.shape
    for i in range(a.size):
        row = brk[i][~np.isnan(brk[i])]
        fi = lambda x: fk(x, i)
        v, e = adaptive_quad(fi, a[i], b[i], rel_tol=1e-11, breakpoints=row)
        assert vals[i] == pytest.approx(v, rel=1e-14, abs=0.0)
        # an error estimate grows from |GK15 - G7|, the difference of two
        # nearly equal sums, so last-bit changes show in it magnified
        assert errs[i] == pytest.approx(e, rel=1e-8, abs=0.0)
        if a[i] < b[i]:
            assert vals[i] == pytest.approx(_reference(fi, a[i], b[i], row),
                                            rel=1e-9)
    assert vals[4] == 0.0 and errs[4] == 0.0


def test_batched_array_integrand_arguments_broadcast():
    import rcm_lab._quadcore as qc

    n = 3 * qc._PANEL_BLOCK
    seen = []

    def f(x, k):
        seen.append((x.shape, k.shape, np.broadcast(x, k).shape))
        return (1.0 + k) * np.cos(x)

    vals, _ = batched_quad(f, np.zeros(n), np.ones(n), rel_tol=1e-12)
    assert vals == pytest.approx((1.0 + np.arange(n)) * math.sin(1.0),
                                 rel=1e-13)
    assert sum(s[0][0] for s in seen) >= n
    for xs, ks, bs in seen:
        assert xs == bs == (ks[0], 15) and ks[1] == 1
        assert ks[0] <= qc._PANEL_BLOCK


@pytest.mark.parametrize("node_block", [7, 2048])
def test_nested_matches_per_integral_nesting(monkeypatch, node_block):
    # ragged outer bounds (one empty), NaN-padded outer breakpoint rows,
    # inner bounds and a NaN-padded inner kink that move with the outer
    # node; the reference nests adaptive_quad calls one integral at a
    # time, with one array call over each outer panel's nodes
    import rcm_lab._quadcore as qc

    monkeypatch.setattr(qc, "_NODE_BLOCK", node_block)
    nan = np.nan
    a = np.array([0.0, -1.0, 0.5, 0.2, 1.0])
    b = np.array([1.0, 1.0, 0.5, 2.5, 3.0])
    obrk = np.array([[nan, nan], [0.0, 0.0], [0.3, nan], [1.0, 7.0],
                     [2.0, nan]])
    c = np.array([0.5, 1.0, 2.0, 3.0, 0.7])
    p = np.array([0.25, 0.6, 0.1, 0.9, 0.5])

    def inner(s, k):
        kink = p[k] * s
        brk = np.stack([kink, np.where(s > 0.5, kink + 0.5, nan)], axis=1)
        return c[k] * s - 1.0, 1.0 + s * s, brk

    def f(t, s, k):
        return np.abs(t - p[k] * s) ** 0.5 * np.exp(-c[k] * s * t) + np.cos(s)

    vals, errs = nested_quad(f, a, b, inner, rel_tol=1e-10,
                             breakpoints=obrk, inner_rel_tol=1e-11)
    assert vals.shape == errs.shape == a.shape
    assert vals[2] == 0.0 and errs[2] == 0.0
    for i in range(a.size):
        def outer(s):
            lo, hi, brk = inner(s, np.full(s.shape, i))
            v, _ = batched_quad(lambda t, j: f(t, s[j], np.full(j.shape, i)),
                                lo, hi, rel_tol=1e-11, breakpoints=brk)
            return v

        row = obrk[i][~np.isnan(obrk[i])]
        want, _ = adaptive_quad(outer, a[i], b[i], rel_tol=1e-10,
                                breakpoints=row)
        assert vals[i] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_nested_error_carries_inner_misses():
    # the inner integral of 1 / sqrt|t - 1/3| stops at the panel floor far
    # above abs 1e-12; the outer integrand is constant, so the outer
    # estimate alone would call the result exact
    def f(t, s, k):
        return 1.0 / np.sqrt(np.abs(t - 1.0 / 3.0))

    _, inner_err = batched_quad(lambda t, k: f(t, None, None), 0.0, 1.0,
                                rel_tol=0.0, abs_tol=1e-12)
    assert inner_err[0] > 1e-9
    val, err = nested_quad(f, 0.0, 2.0, lambda s, k: (0.0, 1.0, np.empty(0)),
                           rel_tol=0.0, abs_tol=1e-6, inner_rel_tol=0.0,
                           inner_abs_tol=1e-12)
    want = 2.0 * (2.0 * math.sqrt(1.0 / 3.0) + 2.0 * math.sqrt(2.0 / 3.0))
    assert val[0] == pytest.approx(want, rel=1e-6)
    assert err[0] >= 2.0 * inner_err[0]


def test_tensor_last_doubling_stops_at_max_n():
    import rcm_lab._quadcore as qc

    seen = []

    def f2(x, y):
        seen.append(x.size)
        # never settles: each refinement changes the sum by 1
        return np.full(np.broadcast(x, y).shape, float(len(seen)))

    qc._leggauss.cache_clear()
    _, err = fixed_tensor_quad(f2, 0.0, 1.0, 0.0, 1.0, n0=12, max_n=256)
    assert seen == [12, 24, 48, 96, 192, 256]
    assert err > 0.0
    # node tables are made once per n and cannot be written to
    xg, wg = qc._leggauss(256)
    assert qc._leggauss(256)[0] is xg and not xg.flags.writeable
