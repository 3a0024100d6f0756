"""Seeded deterministic generators for fuzzing and property suites.

Randomness comes from the Philox counter-based generator keyed by the
seed; normals are produced by Box-Muller from its uniform stream, so
every generator is a pure function of (parameters, seed).  Per-trial
seeds are derived by XOR with multiples of the 64-bit golden ratio.

Every generator runs through a private batch core that takes the seeds
of a batch of trials.  Each trial draws only its uniforms (and
integers, and the commuting pair's admissible points) from its own
stream, in a fixed order; everything after them (Box-Muller, the Haar
QR and its phase fix, the products with the unitary, the canonical pair
and its postcondition) runs once on the stack, with the trial as the
leading axis, and gives each trial the bits it gets alone; a trial that
a rejection rule refuses draws again alone, from the start of its
stream.  The streams of a batch come from one Philox, re-keyed to each
trial's seed (counter 0, empty buffers): the stream a fresh
Philox(key=seed) gives, without the entropy-seeded construction that
the key then overrides.  A public generator is a batch of one through
the same core: it takes exactly one integer seed (_key), and given one
seed rather than a list, a core returns that trial's arrays with no
leading axis.
"""

import operator

import numpy as np

from .canonical import StrictProjectionParams, StrictUnitaryParams, pair_from_params
from .config import DEFAULT_TOL, Tolerances
from .errors import BadMargin, DegenerateSpec, DimensionMismatch, DomainError, OddDimension
from .geometry import BALL_CENTER, _bloch_matrices, _chart, _reference_focus, _separated
from .hermitian import _compose, _span, _vnorm, dagger, hermitize

SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_MAX_REJECT = 10000
_TINY = 1e-6  # a drawn Gaussian vector of norm at most this is skipped


def _key(seed) -> int:
    """seed, an integer through operator.index, mod 2^64."""
    try:
        return operator.index(seed) & _MASK64
    except TypeError:
        raise DomainError("seed must be an integer, got %r" % (seed,)) from None


def derive_seed(base, index) -> int:
    """Per-trial seed: base XOR (index * golden-ratio stride) mod 2^64."""
    return _key(base) ^ ((_key(index) * SEED_STRIDE) & _MASK64)


def _integer(value) -> int:
    """value through operator.index; DimensionMismatch if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DimensionMismatch("expected an integer, got %r" % (value,)) from None


def _size(value, message: str, low: int = 1, high=None) -> int:
    """value, a size, rank or count, as an int in [low, high]; otherwise
    DimensionMismatch(message.format(value, high))."""
    value = _integer(value)
    if value < low or high is not None and value > high:
        raise DimensionMismatch(message.format(value, high))
    return value


def _even(n) -> int:
    """n, as an int, once it is a positive even dimension; else OddDimension."""
    n = _integer(n)
    if n < 2 or n % 2:
        raise OddDimension("need a positive even dimension, got %r" % n)
    return n


def _streams(seeds):
    """For each seed in turn, a Generator with the stream of a fresh
    Philox(key=seed): one Philox, its state set to the seed's key with
    counter 0 and empty buffers.  Each one is spent before the next."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    for seed in seeds:
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64),
                      "key": np.array([_key(seed), 0], np.uint64)},
            "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        yield gen


def _uniforms(seeds, draw) -> tuple:
    """draw(gen), a tuple of arrays, from each trial's own stream: for a
    list of seeds each place stacked over the trials, for one seed that
    trial's tuple."""
    if np.ndim(seeds) == 0:
        return draw(next(_streams([seeds])))
    return tuple(np.array(column) for column in zip(*(draw(gen) for gen in _streams(seeds))))


def _redraw(seeds, redo, alone, outs) -> tuple:
    """outs, with the places of each trial where redo holds replaced by
    alone(gen), drawn again from the start of that trial's stream."""
    if np.ndim(seeds) == 0:
        return alone(next(_streams([seeds]))) if redo else outs
    rows = np.flatnonzero(redo)
    for i, gen in zip(rows, _streams([seeds[i] for i in rows])):
        for out, value in zip(outs, alone(gen)):
            out[i] = value
    return outs


def _gaussians(u) -> np.ndarray:
    """Standard normals by Box-Muller from uniforms of shape (..., 2,
    pairs), radii from the first row and angles from the second: (..., 2
    pairs).  Philox hands out its doubles in order, so a trial's uniforms
    drawn at once are, bit for bit, those it would draw piece by piece."""
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0, :]))
    th = 2.0 * np.pi * u[..., 1, :]
    out = np.empty(u.shape[:-2] + (2 * u.shape[-1],))
    out[..., 0::2] = r * np.cos(th)
    out[..., 1::2] = r * np.sin(th)
    return out


def _complex_gaussians(u, shape) -> np.ndarray:
    """Standard complex normals of the given shape over the leading axes
    of uniforms u of shape (..., 2 prod(shape))."""
    lead = u.shape[:-1]
    z = _gaussians(u.reshape(lead + (2, -1)))
    return ((z[..., 0::2] + 1j * z[..., 1::2]) / np.sqrt(2.0)).reshape(lead + tuple(shape))


def _haar(u, n: int) -> np.ndarray:
    """Haar unitaries over the leading axes of uniforms u of shape
    (..., 2 n^2): QR of a complex Gaussian matrix, with the diagonal of R
    phase-fixed."""
    q, r = np.linalg.qr(_complex_gaussians(u, (n, n)))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    mod = np.abs(d)
    d[mod == 0] = 1.0
    mod[mod == 0] = 1.0
    return q * (d / mod)[..., None, :]


def _haar_unitaries(n: int, seeds) -> np.ndarray:
    """haar_unitary over seeds: 2 n^2 uniforms from each trial's stream."""
    return _haar(*_uniforms(seeds, lambda gen: (gen.random(2 * n * n),)), n)


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    diagonal of R phase-fixed."""
    return _haar_unitaries(_size(n, "dimension must be positive"), _key(seed))


def _check_margin(margin) -> float:
    try:
        margin = float(margin)
    except (TypeError, ValueError):
        raise BadMargin("margin %r is not a number" % (margin,)) from None
    if not 0.0 < margin < 0.5:
        raise BadMargin("margin %r outside (0, 1/2)" % margin)
    return margin


def _strict_effects(n: int, seeds, margin: float) -> np.ndarray:
    (u,) = _uniforms(seeds, lambda gen: (gen.random(n + 2 * n * n),))
    return _compose(margin + (1.0 - 2.0 * margin) * u[..., :n], _haar(u[..., n:], n))


def _commuting_alone(gen, n: int, margin: float):
    """The n points of random_commuting_strict_pair from one stream, one by one."""
    hi, points = np.sqrt(1.0 - margin), []
    for _ in range(n):
        for _ in range(_MAX_REJECT):
            xy = margin + (hi - margin) * gen.random(2)
            if xy[0] * xy[0] + xy[1] * xy[1] <= 1.0 - margin:
                points.append(xy)
                break
        else:
            raise BadMargin("margin %r leaves almost no admissible pairs" % margin)
    return (np.array(points),)


def _commuting_strict_pairs(n: int, seeds, margin: float):
    """random_commuting_strict_pair over seeds, the points from each trial's stream."""
    (xy,) = _uniforms(seeds, lambda gen: _commuting_alone(gen, n, margin))
    return tuple((xy[..., None, :, k] * np.eye(n)).astype(complex) for k in (0, 1))


def random_commuting_strict_pair(n: int, seed, margin=0.05):
    """Diagonal strict pair with per-eigenvalue squares summing below
    1 - margin; the shared (standard) eigenbasis makes ||ab - ba|| = 0
    exactly."""
    margin = _check_margin(margin)
    return _commuting_strict_pairs(_size(n, "dimension must be positive"), _key(seed), margin)


def _pair_params(n: int, seeds, margin: float):
    """Per-site x0 and a0, the raw phases w and the Haar unitary of
    random_pair_params, over seeds."""
    m = n // 2
    (u,) = _uniforms(seeds, lambda gen: (gen.random(3 * m + 2 * n * n),))
    x0, a0 = (margin + (1.0 - 2.0 * margin) * u[..., k * m:(k + 1) * m] for k in (0, 1))
    return x0, a0, np.exp(2j * np.pi * u[..., 2 * m:3 * m]), _haar(u[..., 3 * m:], n)


def random_pair_params(n: int, seed, margin=0.1):
    """Ground-truth data behind random_abscompat_pair: per-site x0, the
    strict projection parameters, and the conjugating unitary."""
    n = _even(n)
    x0, a0, w, u = _pair_params(n, _key(seed), _check_margin(margin))
    return x0, StrictProjectionParams(a0, w), u


def _abscompat_pairs(n: int, seeds, margin: float):
    """x0 and the pair (a, b) of random_abscompat_pair, over seeds: the
    canonical pairs are built and postchecked as one stack."""
    x0, a0, w, u = _pair_params(n, seeds, margin)
    a, b = pair_from_params(x0, StrictProjectionParams(a0, w))
    return x0, hermitize(u @ a @ dagger(u)), hermitize(u @ b @ dagger(u))


def random_abscompat_pair(n: int, seed, margin=0.1):
    """Strict absolutely compatible pair in dimension n (even), built from
    random canonical parameters and a Haar conjugation."""
    n = _even(n)
    return _abscompat_pairs(n, _key(seed), _check_margin(margin))[1:]


def _site_params(m: int, seeds, margin, phases: int) -> tuple:
    """Per-site a0 uniform in [margin, 1 - margin], then that many raw
    uniform phases, each (..., m) over seeds, once margin and m are valid."""
    margin = _check_margin(margin)
    m = _size(m, "need at least one site")
    (u,) = _uniforms(seeds, lambda gen: (gen.random((1 + phases) * m),))
    w = np.exp(2j * np.pi * u[..., m:])
    return (margin + (1.0 - 2.0 * margin) * u[..., :m], *(w[..., k * m:(k + 1) * m] for k in range(phases)))


def random_strict_projection_params(m: int, seed, margin=0.1) -> StrictProjectionParams:
    """Per-site (a0, w) with a0 uniform in [margin, 1 - margin] and a
    uniform phase."""
    return StrictProjectionParams(*_site_params(m, _key(seed), margin, 1))


def random_strict_unitary_params(m: int, seed, margin=0.1) -> StrictUnitaryParams:
    return StrictUnitaryParams(*_site_params(m, _key(seed), margin, 3))


def _split_spectra(n: int, seeds):
    """A rank k drawn from [1, n), n uniforms and a Haar unitary per
    trial, with the mask of the first k places of the spectrum."""
    k, u = _uniforms(seeds, lambda gen: (gen.integers(1, n), gen.random(n + 2 * n * n)))
    return np.arange(n) < np.expand_dims(k, -1), u[..., :n], _haar(u[..., n:], n)


def _commuting_projection_effects(n: int, seeds, margin: float):
    first, vals, u = _split_spectra(n, seeds)
    return _compose(np.where(first, 1.0, 0.0), u), _compose(margin + (1.0 - 2.0 * margin) * vals, u)


def _projections(n: int, ranks, seeds) -> np.ndarray:
    """random_projection over seeds, one rank each; the Haar unitaries
    are one stack, and each range's product is made alone."""
    q = _haar_unitaries(n, seeds)
    if np.ndim(seeds) == 0:
        return _span(q[:, :ranks])
    return np.array([_span(x[:, :rank]) for x, rank in zip(q, ranks)])


def random_projection(n: int, rank: int, seed) -> np.ndarray:
    n = _size(n, "dimension must be positive")
    return _projections(n, _size(rank, "rank {!r} outside [0, {}]", 0, n), _key(seed))


def _rank_ones(u):
    """The rank-one projections, (..., 2, 2), onto the complex Gaussian
    vectors of uniforms of shape (..., 4), and the norms of the vectors."""
    v = _complex_gaussians(u, (2,))
    nrm = _vnorm(v)
    v = v / np.where(nrm > 0.0, nrm, 1.0)[..., None]
    return hermitize(v[..., :, None] * np.conj(v)[..., None, :]), nrm


def _rank_one_2x2s(gen, count: int) -> np.ndarray:
    """count random rank-one 2x2 projections, (count, 2, 2), each the
    projection onto a complex Gaussian vector; a vector of norm at most
    _TINY is skipped for the next draw.  Draws come count at a time, so the
    result is what count draws one by one give, bit for bit."""
    found = []
    while count:
        proj, nrm = _rank_ones(gen.random((count, 4)))
        keep = nrm > _TINY
        found.append(proj[keep])
        count -= int(np.count_nonzero(keep))
    return np.concatenate(found)


def _rank_one_projections(seeds, count: int) -> np.ndarray:
    """count random rank-one 2x2 projections per trial, (..., count, 2, 2), over
    seeds; a trial with a vector of norm at most _TINY draws again alone."""
    (u,) = _uniforms(seeds, lambda gen: (gen.random((count, 4)),))
    proj, nrm = _rank_ones(u)
    (proj,) = _redraw(seeds, ~np.all(nrm > _TINY, axis=-1), lambda gen: (_rank_one_2x2s(gen, count),), (proj,))
    return proj


def random_rank_one_projection(seed) -> np.ndarray:
    return _rank_one_projections(_key(seed), 1)[0]


def _pair_spec_alone(gen, margin: float, separation: float):
    """random_pair_spec from one stream: index, pivot, then targets until
    one is separated from the pivot and its complement (_separated)."""
    index = margin + (1.0 - 2.0 * margin) * float(gen.random())
    pivot = _rank_one_2x2s(gen, 1)[0]
    for _ in range(_MAX_REJECT):
        target = _rank_one_2x2s(gen, 1)[0]
        if np.all(_separated(pivot, target, separation)):
            return pivot, target, index
    raise DegenerateSpec("could not separate the projections")


def _pair_specs(seeds, margin: float, separation: float):
    """random_pair_spec over seeds.  Each trial draws the uniforms of its
    index, pivot and first target; the stack builds them, and a trial
    whose two vectors are drawn (norm above _TINY) and separated keeps
    them.  Any other trial draws again alone (_pair_spec_alone)."""
    (u,) = _uniforms(seeds, lambda gen: (gen.random(9),))
    index = margin + (1.0 - 2.0 * margin) * u[..., 0]
    proj, nrm = _rank_ones(u[..., 1:].reshape(u.shape[:-1] + (2, 4)))
    pivot, target = proj[..., 0, :, :].copy(), proj[..., 1, :, :].copy()
    redo = ~(np.all(nrm > _TINY, axis=-1) & np.all(_separated(pivot, target, separation), axis=-1))
    return _redraw(seeds, redo, lambda gen: _pair_spec_alone(gen, margin, separation),
                   (pivot, target, index))


def _check_separation(separation) -> float:
    """separation as a float in [0, 1/sqrt(2)).  For rank-one P and Q in
    M2, ||P - Q|| = sin(theta) and ||P - (1 - Q)|| = cos(theta) at some
    angle theta, so no target is farther than 1/sqrt(2) from both Q and
    1 - Q, and such a separation raises before any draw."""
    try:
        separation = float(separation)
    except (TypeError, ValueError):
        raise DomainError("separation %r is not a number" % (separation,)) from None
    if not separation >= 0.0:
        raise DomainError("separation %r is negative or NaN" % separation)
    if separation >= np.sqrt(0.5):
        raise DegenerateSpec("separation %r leaves no target: it must be below 1/sqrt(2)" % separation)
    return separation


def random_pair_spec(seed, margin=0.05, separation=0.05):
    """Rank-one (pivot, target), the pivot strictly farther than
    separation from the target and from its complement, plus an index in
    [margin, 1 - margin]."""
    pivot, target, index = _pair_specs(_key(seed), _check_margin(margin), _check_separation(separation))
    return pivot, target, float(index)


def _orthogonal_pairs(n: int, seeds, margin: float):
    first, vals, u = _split_spectra(n, seeds)
    vals = margin + (1.0 - margin) * vals
    return _compose(np.where(first, vals, 0.0), u), _compose(np.where(first, 0.0, vals), u)


def random_orthogonal_pair(n: int, seed, margin=0.1):
    """Effects with ab = 0 built from complementary ranges; eigenvalues
    lie in [margin, 1] so a + b <= 1 holds as well."""
    margin = _check_margin(margin)
    return _orthogonal_pairs(_size(n, "need dimension at least 2", 2), _key(seed), margin)


def _spheroid_partners(a, count: int, seeds, tol: Tolerances) -> np.ndarray:
    """random_spheroid_partners of each effect of a (..., 2, 2) stack, one
    seed each, as a (..., count, 2, 2) stack: the rank-one projections are
    drawn per trial and everything else runs once."""
    _, focus = _reference_focus(a, tol)
    q = _chart(_rank_one_projections(seeds, count))
    d = focus[..., None, :] - q
    t1 = (-2.0 * np.vecdot(q - BALL_CENTER, d) / np.vecdot(d, d))[..., None]
    p = q + t1 * d
    index = (t1 - 1.0) / t1
    return _bloch_matrices((1.0 - index) * p + index * (2.0 * BALL_CENTER - q), tol)


def random_spheroid_partners(a, count: int, seed, tol: Tolerances = DEFAULT_TOL):
    """Effects absolutely compatible with a, one per random rank-one
    projection: the chord through the chart point of a from the random
    boundary point fixes a decomposition of a, and the partner is its
    complementary mix.  All count partners are built as one stack."""
    return list(_spheroid_partners(a, _size(count, "count must be positive"), _key(seed), tol))
