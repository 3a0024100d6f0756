"""The spectral core on (k, n, n) stacks: each matrix of a stack gets the
bits it gets alone, and stacked validation raises what the first failing
matrix raises on its own."""

import numpy as np
import pytest

from abscompat import DEFAULT_TOL, AbscompatError
from abscompat.compat import _pair_spectra, _require_compatible
from abscompat.errors import (
    DegenerateSpec,
    DimensionMismatch,
    NotAbsolutelyCompatible,
    NotHermitian,
    TraceNotOne,
)
from abscompat.generate import (
    _generator,
    _rank_one_2x2s,
    derive_seed,
    random_abscompat_pair,
    random_pair_spec,
    random_spheroid_partners,
)
from abscompat.geometry import (
    BALL_CENTER,
    _bloch,
    _reference_focus,
    bloch_matrix,
    pair_from_projections,
    spheroid_residual,
)
from abscompat.hermitian import _effect, _effects, _hnorm, dagger, hermitize, op_norm

SIZES = (2, 4, 8, 64)
K = 5


def _pairs(n, seed):
    """K compatible pairs of size n, every other one in reverse order, so
    that the canonical order swaps some pairs of the stack and not others."""
    out = []
    for i in range(K):
        a, b = random_abscompat_pair(n, derive_seed(seed, i))
        out.append((b, a) if i % 2 else (a, b))
    return np.array([a for a, _ in out]), np.array([b for _, b in out])


def _two_call_spectra(a, b):
    """_pair_spectra as one eigh per half: the computation before stacks."""
    if b.tobytes() < a.tobytes():
        a, b = b, a
    one = np.eye(len(a), dtype=complex)
    dvals, dvecs = np.linalg.eigh(a - b)
    zvals, zvecs = np.linalg.eigh(one - a - b)
    abs_diff = hermitize((dvecs * np.abs(dvals)) @ dagger(dvecs))
    rest = hermitize((zvecs * np.abs(zvals)) @ dagger(zvecs))
    residual = float(np.max(np.abs(np.linalg.eigvalsh(abs_diff + rest - one))))
    return residual, abs_diff, np.sort(np.abs(dvals)), zvals, zvecs


@pytest.mark.parametrize("n", SIZES)
def test_pair_spectra_stack_equals_batches_of_one(n):
    a, b = _pairs(n, derive_seed(21, n))
    stacked = _pair_spectra(a, b)
    assert stacked.residual.shape == (K,)
    for i in range(K):
        one = _pair_spectra(a[i], b[i])
        assert isinstance(one.residual, float)
        residual, abs_diff, dvals, zvals, zvecs = _two_call_spectra(a[i], b[i])
        assert stacked.residual[i] == one.residual == residual
        assert _pair_spectra(b[i], a[i]).residual == residual
        for got in ((one.abs_diff, one.abs_diff_vals, *one.rest),
                    (stacked.abs_diff[i], stacked.abs_diff_vals[i],
                     stacked.rest[0][i], stacked.rest[1][i])):
            for x, y in zip(got, (abs_diff, dvals, zvals, zvecs)):
                assert np.array_equal(x, y)


@pytest.mark.parametrize("n", SIZES)
def test_norms_of_a_stack_equal_batches_of_one(n):
    a, b = _pairs(n, derive_seed(22, n))
    h = a - b
    x = a @ b  # not Hermitian: op_norm takes the svd
    hnorms, onorms = _hnorm(h), op_norm(x)
    assert hnorms.shape == onorms.shape == (K,)
    for i in range(K):
        assert isinstance(_hnorm(h[i]), float) and isinstance(op_norm(x[i]), float)
        assert hnorms[i] == _hnorm(h[i]) == float(np.max(np.abs(np.linalg.eigvalsh(h[i]))))
        assert onorms[i] == op_norm(x[i]) == float(np.linalg.norm(x[i], 2))
    assert op_norm(np.zeros((0, 0))) == 0.0 and _hnorm(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("n", SIZES)
def test_effects_take_each_spectrum_alone(n):
    a, b = random_abscompat_pair(n, derive_seed(23, n))
    (ea, va), (eb, vb) = _effects(a, b, DEFAULT_TOL)
    for x, got, vals in ((a, ea, va), (b, eb, vb)):
        want, want_vals = _effect(x, DEFAULT_TOL)
        assert np.array_equal(got, want) and np.array_equal(vals, want_vals)


def _one_at_a_time(a, b, tol):
    """The validation _effects made before the stacked eigvalsh: a, then b,
    then the shapes."""
    a, b = _effect(a, tol), _effect(b, tol)
    if a[0].shape != b[0].shape:
        raise DimensionMismatch("effects of shapes %r and %r" % (a[0].shape, b[0].shape))


def test_effects_raise_in_the_order_of_one_operand_at_a_time():
    skew = np.triu(np.full((4, 4), 1e-6), 1)
    good = random_abscompat_pair(4, derive_seed(29, 0))[0]
    bad = {"good": good, "negative": good - 0.5 * np.eye(4), "above": good + 0.5 * np.eye(4),
           "skew": good + skew, "shape": np.eye(2) / 2, "text": "abc"}
    for x in bad.values():
        for y in bad.values():
            want = _error(_one_at_a_time, x, y, DEFAULT_TOL)
            assert _error(_effects, x, y, DEFAULT_TOL) == want


class _Stream:
    """A generator stand-in that hands out a fixed stream of uniforms in
    order, as Philox hands out its doubles."""

    def __init__(self, values):
        self.values, self.pos = np.asarray(values, dtype=float), 0

    def random(self, size=None):
        count = int(np.prod(size)) if size is not None else 1
        out = self.values[self.pos:self.pos + count]
        self.pos += count
        return out.reshape(size) if size is not None else float(out[0])


def _reference_rank_one(gen):
    """One rank-one projection drawn as before batching: Box-Muller on two
    separate uniform draws, the norm from np.linalg.norm, np.outer."""
    while True:
        u1, u2 = gen.random(2), gen.random(2)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        th = 2.0 * np.pi * u2
        z = np.empty(4)
        z[0::2], z[1::2] = r * np.cos(th), r * np.sin(th)
        v = (z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-6:
            v = v / nrm
            return hermitize(np.outer(v, np.conj(v)))


def _reference_partners(a, count, seed):
    """random_spheroid_partners as a per-partner loop."""
    _, focus = _reference_focus(a, DEFAULT_TOL)
    gen = _generator(seed)
    partners = []
    for _ in range(count):
        p = _reference_rank_one(gen)
        q = np.array([p[0, 0].real, p[0, 1].real, p[0, 1].imag])
        d = focus - q
        t1 = -2.0 * float(np.dot(q - BALL_CENTER, d)) / float(np.dot(d, d))
        p = q + t1 * d
        index = (t1 - 1.0) / t1
        partners.append(bloch_matrix((1.0 - index) * p + index * (2.0 * BALL_CENTER - q)))
    return partners


def test_spheroid_partners_equal_the_per_partner_loop():
    for i in range(200):
        seed = derive_seed(24, i)
        a, _ = pair_from_projections(*random_pair_spec(derive_seed(seed, 1)))
        got = random_spheroid_partners(a, 8, derive_seed(seed, 2))
        want = _reference_partners(a, 8, derive_seed(seed, 2))
        assert len(got) == 8
        for x, y in zip(got, want):
            assert np.array_equal(x, y), i


def test_spheroid_stats_equal_the_per_partner_loop():
    for i in range(50):
        seed = derive_seed(30, i)
        a, _ = pair_from_projections(*random_pair_spec(derive_seed(seed, 1)))
        partners = random_spheroid_partners(a, 8, derive_seed(seed, 2))
        _, focus = _reference_focus(a, DEFAULT_TOL)
        mirror = 2.0 * BALL_CENTER - focus
        pts = [_bloch(hermitize(x), DEFAULT_TOL) for x in partners]
        sums = np.array([float(np.linalg.norm(pt - focus) + np.linalg.norm(pt - mirror)) for pt in pts])
        stats = spheroid_residual(a, partners)
        assert (stats.mean, stats.spread) == (float(np.mean(sums)), float(np.max(sums) - np.min(sums))), i


def test_rank_one_draws_skip_a_tiny_vector_like_the_loop():
    """A group of four uniforms whose vector has norm below 1e-6 is skipped,
    and the next group of the stream takes its place."""
    stream = np.random.default_rng(25).random(4 * 12)
    for j in (0, 3, 7):
        values = stream.copy()
        values[4 * j:4 * j + 2] = 1e-15  # u1 ~ 0 gives r ~ 4e-8 for both coordinates
        got = _rank_one_2x2s(_Stream(values), 8)
        ref_gen = _Stream(values)
        want = [_reference_rank_one(ref_gen) for _ in range(8)]
        assert np.array_equal(got, np.array(want)), j


def _reference_spheroid_error(a, partners, tol):
    """What the per-partner loop raised: each partner validated as an
    effect, charted, then checked compatible with a, in order."""
    a, _ = _reference_focus(a, tol)
    for x in partners:
        x, _ = _effect(x, tol)
        _bloch(x, tol)
        _require_compatible(_pair_spectra(a, x), tol)
    return None


def _error(fn, *args):
    """(class, message) of the package error fn raises, else None."""
    try:
        fn(*args)
    except AbscompatError as exc:
        return type(exc), str(exc)
    return None


def _faults():
    skew = np.triu(np.full((2, 2), 1e-6), 1)
    far = bloch_matrix([0.5, 0.2, -0.1])
    return {"non-hermitian": lambda x: x + skew, "trace": lambda x: 0.9 * x, "incompatible": lambda x: far}


@pytest.mark.parametrize("fault", sorted(_faults()))
@pytest.mark.parametrize("position", [0, 3, 7])
def test_spheroid_raises_what_the_first_failing_partner_raises(fault, position):
    a, _ = pair_from_projections(*random_pair_spec(derive_seed(26, position)))
    partners = random_spheroid_partners(a, 8, derive_seed(27, position))
    partners[position] = _faults()[fault](partners[position])
    want = _error(_reference_spheroid_error, a, partners, DEFAULT_TOL)
    assert want is not None and want[0] is {"non-hermitian": NotHermitian, "trace": TraceNotOne,
                                             "incompatible": NotAbsolutelyCompatible}[fault]
    assert _error(spheroid_residual, a, partners) == want
    # a fault of an earlier stage further on does not take over
    if position < 7:
        partners[7] = _faults()["non-hermitian"](partners[7])
        assert _error(spheroid_residual, a, partners) == want


@pytest.mark.parametrize("scale", [0.5, 0.9, 1.1, 1.3, 2.0])
def test_separation_decisions_equal_the_exact_norm(scale):
    """pair_from_projections rejects a target within tol.proj of the pivot,
    or of its complement, exactly when the operator norm says so, though
    the Frobenius bounds settle most separations.  ||P - Q|| = sin(theta)
    and ||P - Q||_F = sqrt(2) sin(theta), so the scales between 1/sqrt(2)
    and sqrt(2) take the exact norm and the others do not."""
    theta = scale * DEFAULT_TOL.proj
    v = np.array([np.cos(theta), np.sin(theta)])
    pivot = np.diag([1.0, 0.0]).astype(complex)
    near = np.outer(v, v).astype(complex)
    for target, message in ((near, "pivot equals the target projection"),
                            (np.eye(2) - near, "pivot equals the complement of the target")):
        close = min(_hnorm(pivot - target), _hnorm(pivot - (np.eye(2) - target))) <= DEFAULT_TOL.proj
        assert close == (scale <= 1.0)
        got = _error(pair_from_projections, pivot, target, 0.5)
        assert (got == (DegenerateSpec, message)) == close


def test_spheroid_partners_of_other_shapes_fail_like_the_loop():
    a, _ = pair_from_projections(*random_pair_spec(derive_seed(28, 0)))
    partners = random_spheroid_partners(a, 4, derive_seed(28, 1))
    for bad in (np.eye(3) / 3, np.ones(2) / 2, "abc", np.stack(partners[:2])):
        mixed = partners[:2] + [bad] + partners[2:]
        want = _error(_reference_spheroid_error, a, mixed, DEFAULT_TOL)
        assert want is not None
        assert _error(spheroid_residual, a, mixed) == want
