"""Seeded deterministic generators for fuzzing and property suites.

Randomness comes from the Philox counter-based generator keyed by the
seed; normals are produced by Box-Muller from its uniform stream, so
every generator is a pure function of (parameters, seed).  Per-trial
seeds are derived by XOR with multiples of the 64-bit golden ratio.
"""

import numpy as np

from .canonical import StrictProjectionParams, StrictUnitaryParams, pair_from_params
from .config import DEFAULT_TOL, Tolerances
from .errors import BadMargin, DegenerateSpec, DimensionMismatch, OddDimension
from .geometry import BALL_CENTER, _chart, _reference_focus, bloch_matrix
from .hermitian import dagger, hermitize

SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_MAX_REJECT = 10000


def derive_seed(base, index) -> int:
    """Per-trial seed: base XOR (index * golden-ratio stride) mod 2^64."""
    return (int(base) ^ ((int(index) * SEED_STRIDE) & _MASK64)) & _MASK64


def _generator(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def gaussian(gen, count: int) -> np.ndarray:
    """Standard normals via Box-Muller pairs from the uniform stream."""
    pairs = (count + 1) // 2
    u1 = gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    th = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(th)
    out[1::2] = r * np.sin(th)
    return out[:count]


def gaussian_complex(gen, shape) -> np.ndarray:
    n = int(np.prod(shape))
    z = gaussian(gen, 2 * n)
    return ((z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)).reshape(shape)


def _haar(gen, n: int) -> np.ndarray:
    z = gaussian_complex(gen, (n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    mod = np.abs(d)
    d[mod == 0] = 1.0
    mod[mod == 0] = 1.0
    return q * (d / mod)


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    diagonal of R phase-fixed."""
    if n < 1:
        raise DimensionMismatch("dimension must be positive")
    return _haar(_generator(seed), n)


def _check_margin(margin) -> float:
    margin = float(margin)
    if not 0.0 < margin < 0.5:
        raise BadMargin("margin %r outside (0, 1/2)" % margin)
    return margin


def random_strict_effect(n: int, seed, margin=0.1) -> np.ndarray:
    """Effect with spectrum drawn uniformly from [margin, 1 - margin]."""
    margin = _check_margin(margin)
    if n < 1:
        raise DimensionMismatch("dimension must be positive")
    gen = _generator(seed)
    vals = margin + (1.0 - 2.0 * margin) * gen.random(n)
    u = _haar(gen, n)
    return hermitize((u * vals) @ dagger(u))


def random_commuting_strict_pair(n: int, seed, margin=0.05):
    """Diagonal strict pair with per-eigenvalue squares summing below
    1 - margin; the shared (standard) eigenbasis makes ||ab - ba|| = 0
    exactly."""
    margin = _check_margin(margin)
    if n < 1:
        raise DimensionMismatch("dimension must be positive")
    gen = _generator(seed)
    hi = np.sqrt(1.0 - margin)
    alpha = np.empty(n)
    beta = np.empty(n)
    for i in range(n):
        for _ in range(_MAX_REJECT):
            x, y = margin + (hi - margin) * gen.random(2)
            if x * x + y * y <= 1.0 - margin:
                alpha[i], beta[i] = x, y
                break
        else:
            raise BadMargin("margin %r leaves almost no admissible pairs" % margin)
    return np.diag(alpha).astype(complex), np.diag(beta).astype(complex)


def random_pair_params(n: int, seed, margin=0.1):
    """Ground-truth data behind random_abscompat_pair: per-site x0, the
    strict projection parameters, and the conjugating unitary."""
    if n < 2 or n % 2:
        raise OddDimension("need a positive even dimension, got %r" % n)
    margin = _check_margin(margin)
    gen = _generator(seed)
    m = n // 2
    x0 = margin + (1.0 - 2.0 * margin) * gen.random(m)
    a0 = margin + (1.0 - 2.0 * margin) * gen.random(m)
    w = np.exp(2j * np.pi * gen.random(m))
    u = _haar(gen, n)
    return x0, StrictProjectionParams(a0, w), u


def random_abscompat_pair(n: int, seed, margin=0.1):
    """Strict absolutely compatible pair in dimension n (even), built from
    random canonical parameters and a Haar conjugation."""
    x0, params, u = random_pair_params(n, seed, margin)
    a, b = pair_from_params(x0, params)
    return hermitize(u @ a @ dagger(u)), hermitize(u @ b @ dagger(u))


def random_strict_projection_params(m: int, seed, margin=0.1) -> StrictProjectionParams:
    """Per-site (a0, w) with a0 uniform in [margin, 1 - margin] and a
    uniform phase."""
    margin = _check_margin(margin)
    if m < 1:
        raise DimensionMismatch("need at least one site")
    gen = _generator(seed)
    a0 = margin + (1.0 - 2.0 * margin) * gen.random(m)
    w = np.exp(2j * np.pi * gen.random(m))
    return StrictProjectionParams(a0, w)


def random_strict_unitary_params(m: int, seed, margin=0.1) -> StrictUnitaryParams:
    margin = _check_margin(margin)
    if m < 1:
        raise DimensionMismatch("need at least one site")
    gen = _generator(seed)
    a0 = margin + (1.0 - 2.0 * margin) * gen.random(m)
    w1, w2, w3 = np.exp(2j * np.pi * gen.random((3, m)))
    return StrictUnitaryParams(a0, w1, w2, w3)


def random_commuting_projection_effect(n: int, seed, margin=0.1):
    """Projection and strict effect diagonal in one Haar basis, so the
    two commute up to rounding."""
    margin = _check_margin(margin)
    if n < 2:
        raise DimensionMismatch("need dimension at least 2")
    gen = _generator(seed)
    k = int(gen.integers(1, n))
    pvals = np.zeros(n)
    pvals[:k] = 1.0
    avals = margin + (1.0 - 2.0 * margin) * gen.random(n)
    u = _haar(gen, n)
    p = hermitize((u * pvals) @ dagger(u))
    a = hermitize((u * avals) @ dagger(u))
    return p, a


def random_projection(n: int, rank: int, seed) -> np.ndarray:
    if not 0 <= rank <= n:
        raise DimensionMismatch("rank %r outside [0, %d]" % (rank, n))
    if n < 1:
        raise DimensionMismatch("dimension must be positive")
    v = _haar(_generator(seed), n)[:, :rank]
    return hermitize(v @ dagger(v))


def _rank_one_2x2(gen) -> np.ndarray:
    while True:
        v = gaussian_complex(gen, (2,))
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-6:
            v = v / nrm
            return hermitize(np.outer(v, np.conj(v)))


def random_rank_one_projection(seed) -> np.ndarray:
    return _rank_one_2x2(_generator(seed))


def random_pair_spec(seed, margin=0.05, separation=0.05):
    """Rank-one (pivot, target) with honest separation plus an index in
    [margin, 1 - margin]."""
    margin = _check_margin(margin)
    gen = _generator(seed)
    index = margin + (1.0 - 2.0 * margin) * float(gen.random())
    pivot = _rank_one_2x2(gen)
    one = np.eye(2, dtype=complex)
    for _ in range(_MAX_REJECT):
        target = _rank_one_2x2(gen)
        gap = min(
            float(np.linalg.norm(pivot - target, 2)),
            float(np.linalg.norm(pivot - (one - target), 2)),
        )
        if gap >= separation:
            return pivot, target, index
    raise DegenerateSpec("could not separate the projections")


def random_orthogonal_pair(n: int, seed, margin=0.1):
    """Effects with ab = 0 built from complementary ranges; eigenvalues
    lie in [margin, 1] so a + b <= 1 holds as well."""
    margin = _check_margin(margin)
    if n < 2:
        raise DimensionMismatch("need dimension at least 2")
    gen = _generator(seed)
    k = int(gen.integers(1, n))
    va = np.zeros(n)
    vb = np.zeros(n)
    va[:k] = margin + (1.0 - margin) * gen.random(k)
    vb[k:] = margin + (1.0 - margin) * gen.random(n - k)
    u = _haar(gen, n)
    a = hermitize((u * va) @ dagger(u))
    b = hermitize((u * vb) @ dagger(u))
    return a, b


def random_spheroid_partners(a, count: int, seed, tol: Tolerances = DEFAULT_TOL):
    """Effects absolutely compatible with a, one per random rank-one
    projection: the chord through the chart point of a from the random
    boundary point fixes a decomposition of a, and the partner is its
    complementary mix."""
    if count < 1:
        raise DimensionMismatch("count must be positive")
    _, focus = _reference_focus(a, tol)
    gen = _generator(seed)
    partners = []
    for _ in range(count):
        q = _chart(_rank_one_2x2(gen))
        d = focus - q
        t1 = -2.0 * float(np.dot(q - BALL_CENTER, d)) / float(np.dot(d, d))
        p = q + t1 * d
        index = (t1 - 1.0) / t1
        partner = (1.0 - index) * p + index * (2.0 * BALL_CENTER - q)
        partners.append(bloch_matrix(partner, tol))
    return partners
