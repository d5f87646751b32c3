"""Counter-based per-pair uniforms.

Every potential edge (i, j) of a trial gets its own deterministic uniform,
keyed by (seed, stream, min(i, j), max(i, j)).  Decisions are therefore
independent of visit order, which is what makes the exact and cells graph
builds bit-identical and lets coupled models share randomness.

The generator is a chained splitmix64 finalizer over the key words.  It is
stateless: no generator objects, no sequence position, safe under any
parallel schedule.  Its first round over the smaller index is row_key and
its last round pair_bits, so a scan over the pairs of a row mixes once per
pair.
"""

import numpy as np

# splitmix64 increment, mixing multipliers and shifts.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(k) for k in (30, 27, 31, 11))

# Stream tags keep edge decisions independent of coupling decisions.
STREAM_EDGE = 0x45444745       # "EDGE"
STREAM_COUPLING = 0x434F5550   # "COUP"


def _mix(z, out=None, tmp=None):
    """The splitmix64 finalizer of z + _GOLDEN, as a uint64 array.

    The sum goes to out (a new array unless given; out may be z itself) and
    is mixed there in place, with tmp (a new array unless given) holding
    the shifted words, so a caller with buffers allocates nothing.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(np.add(z, _GOLDEN, out=out))
        tmp = np.empty_like(z) if tmp is None else tmp
        z ^= np.right_shift(z, _S30, out=tmp)
        z *= _M1
        z ^= np.right_shift(z, _S27, out=tmp)
        z *= _M2
        z ^= np.right_shift(z, _S31, out=tmp)
    return z


def row_key(seed, i, stream=STREAM_EDGE):
    """First mixing round of every pair whose smaller index is i.

    i may be a scalar or an integer array; pair_bits(row_key(seed, i), j)
    completes the hash of the pair {i, j} for any j >= i, so a scan over
    rows mixes once per row here and once per pair there.
    """
    s = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    t = np.uint64(int(stream) & 0xFFFFFFFFFFFFFFFF)
    return _mix(_mix(s ^ _mix(t)) ^ np.asarray(i, dtype=np.uint64))


def pair_bits(key, j, out=None, tmp=None):
    """The 53 random bits of the pair (row of key, j), as uint64 integers.

    key and j broadcast together; pair_uniform is these bits times 2^-53.
    out and tmp, uint64 arrays of the broadcast shape, are optional
    buffers for the result and the mixing (see _mix).
    """
    h = np.bitwise_xor(key, np.asarray(j, dtype=np.uint64), out=out)
    h = _mix(h, out=out, tmp=tmp)
    h >>= _S11
    return h


def pair_uniform(seed, i, j, stream=STREAM_EDGE):
    """Uniform in [0, 1) for the unordered pair {i, j} under this seed.

    i and j may be scalars or integer arrays (broadcast together, so a
    column of rows against a row of columns gives the whole tile).  The
    result only depends on {i, j} as a set; it is a float when both are
    scalars.
    """
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    h = pair_bits(row_key(seed, np.minimum(i, j), stream), np.maximum(i, j))
    u = h.astype(np.float64) * (2.0 ** -53)
    if u.shape == ():
        return float(u)
    return u
