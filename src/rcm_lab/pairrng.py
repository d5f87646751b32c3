"""Counter-based per-pair uniforms.

Every potential edge (i, j) of a trial gets its own deterministic uniform,
keyed by (seed, stream, min(i, j), max(i, j)).  Decisions are therefore
independent of visit order, which is what makes the exact and cells graph
builds bit-identical and lets coupled models share randomness.

The generator is a chained splitmix64 finalizer over the key words.  It is
stateless: no generator objects, no sequence position, safe under any
parallel schedule.
"""

import numpy as np

# splitmix64 increment and mixing multipliers.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)

# Stream tags keep edge decisions independent of coupling decisions.
STREAM_EDGE = 0x45444745       # "EDGE"
STREAM_COUPLING = 0x434F5550   # "COUP"


def _mix(z):
    with np.errstate(over="ignore"):
        z = (z + _GOLDEN).astype(np.uint64)
        z ^= z >> np.uint64(30)
        z *= _M1
        z ^= z >> np.uint64(27)
        z *= _M2
        z ^= z >> np.uint64(31)
    return z


def pair_uniform(seed, i, j, stream=STREAM_EDGE):
    """Uniform in [0, 1) for the unordered pair {i, j} under this seed.

    i and j may be scalars or integer arrays (broadcast together, so a
    column of rows against a row of columns gives the whole tile).  The
    result only depends on {i, j} as a set; it is a float when both are
    scalars.
    """
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    s = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    t = np.uint64(int(stream) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        h = _mix(np.broadcast_to(s ^ _mix(np.atleast_1d(t))[0], lo.shape).copy())
        h = _mix(h ^ lo)
        h = _mix(h ^ hi)
    u = (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    if u.shape == ():
        return float(u)
    return u
