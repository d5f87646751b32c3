import numpy as np

from rcm_lab.pairrng import STREAM_COUPLING, STREAM_EDGE, pair_uniform


def test_symmetry_in_pair_order():
    for i, j in ((0, 1), (5, 17), (123456, 789)):
        assert pair_uniform(9, i, j) == pair_uniform(9, j, i)


def test_deterministic():
    assert pair_uniform(3, 10, 20) == pair_uniform(3, 10, 20)


def test_seed_and_stream_change_values():
    u0 = pair_uniform(0, 4, 9)
    assert u0 != pair_uniform(1, 4, 9)
    assert u0 != pair_uniform(0, 4, 9, stream=STREAM_COUPLING)
    assert STREAM_EDGE != STREAM_COUPLING


def test_vectorized_matches_scalar():
    ii = np.array([0, 3, 7, 7])
    jj = np.array([1, 2, 9, 8])
    vec = pair_uniform(5, ii, jj)
    for k in range(ii.size):
        assert vec[k] == pair_uniform(5, int(ii[k]), int(jj[k]))


def test_broadcast_tile_matches_elementwise():
    # a (B, 1) column of rows against a (1, C) row of columns, as the
    # all-pairs scan calls it, including pairs with i >= j
    rows = np.arange(3, 8)[:, None]
    cols = np.arange(2, 14)[None, :]
    tile = pair_uniform(13, rows, cols)
    assert tile.shape == (5, 12)
    for a in range(5):
        for b in range(12):
            assert tile[a, b] == pair_uniform(13, int(rows[a, 0]),
                                              int(cols[0, b]))
    assert isinstance(pair_uniform(13, 3, 4), float)
    assert pair_uniform(13, np.array([3]), 4).shape == (1,)


def test_range_and_uniformity():
    n = 2000
    iu, ju = np.triu_indices(n, k=1)
    pick = np.random.default_rng(0).choice(iu.size, 200_000, replace=False)
    u = pair_uniform(7, iu[pick], ju[pick])
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # crude moment checks; exact thresholds are loose 5 sigma bands
    m = u.mean()
    assert abs(m - 0.5) < 5.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(u.size)
    assert abs(u.var() - 1.0 / 12.0) < 5e-3
    # no collisions expected among 2e5 53-bit draws
    assert np.unique(u).size == u.size


def test_independent_of_unrelated_index():
    # the value for pair (i, j) must not depend on any other pair
    a = pair_uniform(11, 2, 3)
    b = pair_uniform(11, np.array([2, 500]), np.array([3, 501]))[0]
    assert a == b
