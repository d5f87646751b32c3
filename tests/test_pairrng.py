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


def _splitmix(z):
    with np.errstate(over="ignore"):
        z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def _chained_uniform(seed, i, j, stream=STREAM_EDGE):
    # the generator written out in one piece: splitmix64 over the key words
    # seed ^ mix(stream), min(i, j) and max(i, j), chained
    _mix = _splitmix
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    s = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    t = np.uint64(int(stream) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        h = _mix(np.broadcast_to(s ^ _mix(np.atleast_1d(t))[0],
                                 lo.shape).copy())
        h = _mix(h ^ lo)
        h = _mix(h ^ hi)
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def test_row_key_and_pair_bits_compose_the_chained_hash():
    from rcm_lab.pairrng import pair_bits, row_key

    for seed, stream in ((0, STREAM_EDGE), (2 ** 63 + 5, STREAM_COUPLING),
                         (-3, STREAM_EDGE)):
        # scalars with i < j, i > j and i == j
        for i, j in ((3, 8), (8, 3), (6, 6), (0, 2 ** 40)):
            want = _chained_uniform(seed, i, j, stream)
            got = pair_uniform(seed, i, j, stream=stream)
            assert isinstance(got, float) and got == float(want)
        # broadcast tiles covering all three orders
        rows = np.arange(0, 40)[:, None]
        cols = np.arange(10, 70)[None, :]
        want = _chained_uniform(seed, rows, cols, stream)
        assert np.array_equal(pair_uniform(seed, rows, cols, stream=stream),
                              want)
        # the bits themselves: one key per row, one mix per pair
        keys = row_key(seed, rows, stream)
        bits = pair_bits(keys, cols)
        assert bits.dtype == np.uint64 and bits.max() < 2 ** 53
        upper = cols >= rows
        assert np.array_equal((bits * 2.0 ** -53)[upper],
                              np.broadcast_to(want, bits.shape)[upper])
        # the same bits through caller-owned buffers
        out, tmp = np.empty((2,) + bits.shape, dtype=np.uint64)
        assert pair_bits(keys, cols, out=out, tmp=tmp) is out
        assert np.array_equal(out, bits)
        assert pair_bits(row_key(seed, 4, stream), 9) == int(
            _chained_uniform(seed, 4, 9, stream) * 2.0 ** 53)
