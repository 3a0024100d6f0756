"""The spectral core, the stack-native entry points, the batched
properties and the stacked draws: each element of a stack gets the bits
it gets alone.  A failing stack raises at the first check that any of
its elements fails, with the message of the first such element in C
order, so a stack with one failing element raises what that element
raises on its own, and a list that does not stack raises the DomainError
of as_matrix."""

import dataclasses

import numpy as np
import pytest

from abscompat import DEFAULT_TOL, AbscompatError, generate
from abscompat.canonical import (
    PIVOT_0, SiteBlockMatrix, StrictProjectionParams, StrictUnitaryParams, _canonical, canonicalize,
    conjugate_to_pivot, dilate_commuting_pair, exchanged_pivot_form, is_strict_projection, is_strict_unitary,
    pair_from_params, params_from_strict_projection, params_from_strict_unitary, projection_pair_from_unitary,
    strict_projection_from_params, strict_unitary_from_params,
)
from abscompat.compat import (
    BLOCK_NAMES,
    _canonical_order,
    _five_blocks,
    _pair_spectra,
    five_block_decompose,
    is_abs_compatible,
    is_orthogonal,
    projection_compat_equiv,
)
from abscompat.errors import (
    BadMargin,
    DegenerateSpec,
    DimensionMismatch,
    DomainError,
    NotAbsolutelyCompatible,
    NegativeSpectrum,
    NotHermitian,
    PostconditionFailure,
    TraceNotOne,
)
from abscompat.generate import (
    _commuting_projection_effects,
    _streams,
    _strict_effects,
    derive_seed,
    haar_unitary,
    random_abscompat_pair,
    random_commuting_strict_pair,
    random_orthogonal_pair,
    random_pair_params,
    random_pair_spec,
    random_projection,
    random_spheroid_partners,
    random_strict_projection_params,
    random_strict_unitary_params,
)
from abscompat.geometry import (
    BALL_CENTER,
    _separated,
    ball_to_sphere,
    bloch_matrix,
    bloch_point,
    decompose_pair_m2,
    geometry_report,
    pair_from_projections,
    sphere_to_ball,
    spheroid_residual,
)
from abscompat.hermitian import (
    _ROUNDING, _effects, _hermitian_pair, _hnorm, dagger, hermitize, op_norm, require_hermitian,
)
from abscompat.properties import REGISTRY, Outcome, run
from conftest import _eig_norm, _sylvester_certificate, _two_call_residual

SIZES = (2, 4, 8, 64)
K = 5


def _frobenius(h):
    """The Frobenius norm of each matrix of h, reduced by vecdot as the
    package's Frobenius cuts reduce it, so a cut decides as theirs do."""
    flat = h.reshape(h.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat).real)


def _pairs(n, seed):
    """K compatible pairs of size n, every other one in reverse order, so
    that the canonical order swaps some pairs of the stack and not others."""
    out = []
    for i in range(K):
        a, b = random_abscompat_pair(n, derive_seed(seed, i))
        out.append((b, a) if i % 2 else (a, b))
    return np.array([a for a, _ in out]), np.array([b for _, b in out])


@pytest.mark.parametrize("n", SIZES)
def test_pair_spectra_stack_equals_batches_of_one(n):
    """On compatible pairs and on the same pairs moved off compatibility
    by 1e-3, the residual of _pair_spectra and of is_abs_compatible,
    stacked or alone and in either operand order, has the same bits.  On
    a compatible pair it is the Sylvester bound from its eigh of 1-a-b,
    bit for bit, which certifies it and, less the rounding allowance, is
    never below the residual of one eigh of a-b and one of 1-a-b, each
    taken alone; on a moved pair,
    above tol.compat, it is that residual, byte for byte."""
    tol = DEFAULT_TOL
    a, b = _pairs(n, derive_seed(21, n))
    gen = np.random.default_rng(n)
    h = hermitize(gen.normal(size=a.shape) + 1j * gen.normal(size=a.shape))
    a = np.concatenate([a, a + 1e-3 * h / np.linalg.norm(h, axis=(-2, -1), keepdims=True)])
    b = np.concatenate([b, b])
    stacked = _pair_spectra(a, b, tol.compat)[0]
    assert stacked.shape == (2 * K,)
    assert is_abs_compatible(a, b).residual.tobytes() == stacked.tobytes()
    for i in range(2 * K):
        one = _pair_spectra(a[i], b[i], tol.compat)[0]
        assert isinstance(one, float)
        assert stacked[i] == one == _pair_spectra(b[i], a[i], tol.compat)[0] == is_abs_compatible(a[i], b[i]).residual
        residual = _two_call_residual(a[i], b[i])
        if i < K:
            bound, certified = _sylvester_certificate(a[i], b[i], tol)
            assert certified and one == bound and bound - _ROUNDING * n >= residual, (i, one, bound, residual)
        else:
            assert one == residual > tol.compat, (i, one, residual)


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
    assert op_norm(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("n", SIZES)
def test_effects_take_each_spectrum_alone(n):
    a, b = random_abscompat_pair(n, derive_seed(23, n))
    ea, eb = _hermitian_pair(a, b, DEFAULT_TOL)
    va, vb = _effects(ea, eb, DEFAULT_TOL)
    for x, got, vals in ((a, ea, va), (b, eb, vb)):
        want, want_vals = _as_effect(x, DEFAULT_TOL)
        assert np.array_equal(got, want) and np.array_equal(vals, want_vals)


def _as_effect(x, tol):
    """(x, its ascending spectrum) for x checked as one effect, in the
    package's order and words: made exactly Hermitian by
    require_hermitian, then its spectrum inside [0, 1] within tol.spec."""
    x = require_hermitian(x, tol)
    vals = np.linalg.eigvalsh(x)
    if vals.size and not -tol.spec <= vals[0]:
        raise NegativeSpectrum("smallest eigenvalue %.3e < -%.3e" % (vals[0], tol.spec))
    if vals.size and not vals[-1] <= 1.0 + tol.spec:
        raise DomainError("largest eigenvalue %.3e exceeds 1" % vals[-1])
    return x, vals


def _one_at_a_time(a, b, tol):
    """Each operand validated as an effect on its own, a, then b, then the
    shapes compared."""
    a, b = _as_effect(a, tol), _as_effect(b, tol)
    if a[0].shape != b[0].shape:
        raise DimensionMismatch("effects of shapes %r and %r" % (a[0].shape, b[0].shape))


def _boundary_effects(a, b, tol):
    """_effects on the operands the boundary validated."""
    return _effects(*_hermitian_pair(a, b, tol), tol)


def _operands(n):
    """A good effect of size n beside one operand of each fault; "huge"
    has entries past 1 + tol.spec that would overflow a @ b, and "stack"
    is a 3-D stack of good effects, which only the stacked entry points
    take."""
    good = random_abscompat_pair(n, derive_seed(29, n))[0]
    return {"good": good, "negative": good - 0.5 * np.eye(n), "above": good + 0.5 * np.eye(n),
            "huge": 1e300 * good, "skew": good + np.triu(np.full((n, n), 1e-6), 1),
            "shape": np.eye(n + 1) / 2, "text": "abc", "stack": np.array([good, good])}


# the validation of two effects and the public entry points that take two
# effects, each with whether it takes stacks
PAIR_ENTRY_POINTS = {_boundary_effects: False, is_abs_compatible: True, five_block_decompose: False,
                     canonicalize: False, decompose_pair_m2: True, is_orthogonal: False,
                     dilate_commuting_pair: True}


@pytest.mark.parametrize("n", (2, 4))
@pytest.mark.parametrize("fn", list(PAIR_ENTRY_POINTS), ids=lambda fn: fn.__name__)
def test_effects_raise_in_the_order_of_one_operand_at_a_time(fn, n):
    """Wherever an operand fails its own checks, each entry point raises
    what validating a, then b, then the shapes raises; a pair of two
    effects goes on to the checks of its entry point."""
    operands = _operands(n)
    if PAIR_ENTRY_POINTS[fn]:
        del operands["stack"]
    checked = 0
    for x in operands.values():
        for y in operands.values():
            want = _error(_one_at_a_time, x, y, DEFAULT_TOL)
            if want is not None:
                assert _error(fn, x, y, DEFAULT_TOL) == want
                checked += 1
    # all but (good, good) and (shape, shape), two pairs of effects
    assert checked == len(operands) ** 2 - 2


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
    u1, u2 = gen.random(2), gen.random(2)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    th = 2.0 * np.pi * u2
    z = np.empty(4)
    z[0::2], z[1::2] = r * np.cos(th), r * np.sin(th)
    v = (z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)
    v = v / float(np.linalg.norm(v))
    return hermitize(np.outer(v, np.conj(v)))


def _fresh(seed):
    """A trial's generator as a new Philox keyed by its seed, the reference
    for the re-keyed streams."""
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


def _reference_partners(a, count, seed, gen=None):
    """random_spheroid_partners as a per-partner loop."""
    focus = bloch_point(a)
    gen = gen or _fresh(seed)
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
        focus = bloch_point(a)
        mirror = 2.0 * BALL_CENTER - focus
        pts = [bloch_point(x) for x in partners]
        sums = np.array([float(np.linalg.norm(pt - focus) + np.linalg.norm(pt - mirror)) for pt in pts])
        stats = spheroid_residual(a, partners)
        assert (stats.mean, stats.spread) == (float(np.mean(sums)), float(np.max(sums) - np.min(sums))), i


def _reference_spheroid_error(a, partners, tol):
    """What the per-partner loop raised for a valid reference a: each
    partner validated as an effect, charted, then checked compatible with
    a, in order."""
    a = require_hermitian(a, tol)
    for x in partners:
        x, _ = _as_effect(x, tol)
        bloch_point(x, tol)
        residual = _two_call_residual(a, x)
        if not residual <= tol.compat:
            raise NotAbsolutelyCompatible("residual %.3e > %.3e" % (residual, tol.compat))
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
    # a non-Hermitian partner further on takes over: hermiticity is checked
    # for every partner before trace and compatibility
    if position < 7:
        partners[7] = _faults()["non-hermitian"](partners[7])
        assert _error(spheroid_residual, a, partners) == _error(spheroid_residual, a, partners[7:8])


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
        close = min(_eig_norm(pivot - target), _eig_norm(pivot - (np.eye(2) - target))) <= DEFAULT_TOL.proj
        assert close == (scale <= 1.0)
        got = _error(pair_from_projections, pivot, target, 0.5)
        assert (got == (DegenerateSpec, message)) == close


def test_spheroid_partners_of_other_shapes_fail_like_the_loop():
    """The loop rejects each mixed list; the list does not stack, so the
    stacked check raises the DomainError of as_matrix, whose message ends
    in numpy's own text."""
    a, _ = pair_from_projections(*random_pair_spec(derive_seed(28, 0)))
    partners = random_spheroid_partners(a, 4, derive_seed(28, 1))
    for bad in (np.eye(3) / 3, np.ones(2) / 2, "abc", np.stack(partners[:2])):
        mixed = partners[:2] + [bad] + partners[2:]
        assert _error(_reference_spheroid_error, a, mixed, DEFAULT_TOL) is not None
        cls, message = _error(spheroid_residual, a, mixed)
        assert cls is DomainError and message.startswith("expected a numeric matrix"), message


# --- the stack-native entry points: a stack equals its scalar calls ---

B = 64


def _bits(obj):
    """obj as nested bytes, through dataclasses, dicts, tuples and lists:
    equal exactly when every number has the same bits."""
    if dataclasses.is_dataclass(obj):
        return tuple(_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return tuple((k, _bits(v)) for k, v in obj.items())
    if isinstance(obj, (tuple, list)):
        return tuple(map(_bits, obj))
    x = np.asarray(obj)
    return x.shape, x.dtype.str, x.tobytes()


def _element(obj, i):
    """Element i of a stacked result or input."""
    if dataclasses.is_dataclass(obj):
        return type(obj)(**{f.name: _element(getattr(obj, f.name), i) for f in dataclasses.fields(obj)})
    if isinstance(obj, dict):
        return {k: _element(v, i) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(_element(v, i) for v in obj)
    return obj[i] if isinstance(obj, np.ndarray) and obj.ndim else obj


def _specs(seed):
    return tuple(np.array(v) for v in zip(*(random_pair_spec(derive_seed(seed, i)) for i in range(B))))


def _m2_pairs(seed):
    return tuple(np.array(v) for v in zip(*(pair_from_projections(*random_pair_spec(derive_seed(seed, i)))
                                             for i in range(B))))


def _compat_pairs(n, seed):
    """B compatible pairs, every other one reversed, and every fourth b
    replaced by a generic strict effect, so some residuals fail."""
    a, b = [], []
    for i in range(B):
        x, y = random_abscompat_pair(n, derive_seed(seed, i))
        x, y = (y, x) if i % 2 else (x, y)
        a.append(x)
        b.append(_strict_effects(n, derive_seed(seed, B + i), 0.1) if i % 4 == 3 else y)
    return np.array(a), np.array(b)


def _projection_pairs(n, seed):
    """Commuting and generic (projection, effect) pairs, in turn."""
    p, e = [], []
    for i in range(B):
        s = derive_seed(seed, i)
        if i % 2:
            p.append(random_projection(n, 1 + i % (n - 1), s))
            e.append(_strict_effects(n, derive_seed(s, 1), 0.1))
        else:
            x, y = _commuting_projection_effects(n, s, 0.1)
            p.append(x)
            e.append(y)
    return np.array(p), np.array(e)


def _geometry_points(seed):
    pivot, target, index = _specs(seed)
    sphere = geometry_report(pivot, target, index).sphere
    a, _ = pair_from_projections(pivot, target, index)
    return sphere, bloch_point(a), bloch_point(target)


def _partners(seed):
    a, _ = _m2_pairs(seed)
    return a, np.array([random_spheroid_partners(x, 8, derive_seed(seed, B + i)) for i, x in enumerate(a)])


def _site_map(fn):
    """fn of the site-block matrices of its blocks argument, a parameter
    record it returns as the tuple of its fields: building a record of
    one element normalizes its phases again."""
    def call(blocks):
        out = fn(SiteBlockMatrix(blocks))
        records = (StrictUnitaryParams, StrictProjectionParams)
        return dataclasses.astuple(out) if isinstance(out, records) else out
    return call


def _site_blocks(kind, seed):
    """The site blocks of B strict unitaries or strict projections of two
    sites each."""
    draw, build = {"unitary": (random_strict_unitary_params, strict_unitary_from_params),
                   "projection": (random_strict_projection_params, strict_projection_from_params)}[kind]
    return np.array([build(draw(2, derive_seed(seed, i))).blocks for i in range(B)])


def _commuting_pairs(n, seed):
    return tuple(np.array(x) for x in zip(*(random_commuting_strict_pair(n, derive_seed(seed, i))
                                            for i in range(B))))


def _raw_params(seed):
    """Per-site x0, a0 and unnormalized phases w of B pairs of two sites."""
    gen = np.random.default_rng(seed)
    x0, a0 = 0.1 + 0.8 * gen.random((2, B, 2))
    return x0, a0, np.exp(2j * np.pi * gen.random((B, 2)))


def _params_pair(x0, a0, w):
    return pair_from_params(x0, StrictProjectionParams(a0, w))


STACKED = {
    "is_abs_compatible": lambda n: (is_abs_compatible, *_compat_pairs(n, derive_seed(41, n))),
    "projection_compat_equiv": lambda n: (projection_compat_equiv, *_projection_pairs(n, derive_seed(42, n))),
    "pair_from_projections": lambda n: (pair_from_projections, *_specs(43)),
    "decompose_pair_m2": lambda n: (decompose_pair_m2, *_m2_pairs(44)),
    "geometry_report": lambda n: (geometry_report, *_specs(45)),
    "bloch_point": lambda n: (bloch_point, _m2_pairs(46)[0]),
    "sphere_to_ball": lambda n: (sphere_to_ball, *_geometry_points(47)[:2]),
    "ball_to_sphere": lambda n: (ball_to_sphere, _geometry_points(48)[0], _geometry_points(48)[2]),
    "spheroid_residual": lambda n: (spheroid_residual, *_partners(49)),
    "is_strict_unitary": lambda n: (_site_map(is_strict_unitary), _site_blocks("unitary", 50)),
    "params_from_strict_unitary": lambda n: (_site_map(params_from_strict_unitary),
                                             _site_blocks("unitary", 51)),
    "projection_pair_from_unitary": lambda n: (_site_map(projection_pair_from_unitary),
                                               _site_blocks("unitary", 52)),
    "is_strict_projection": lambda n: (_site_map(is_strict_projection), _site_blocks("projection", 53)),
    "params_from_strict_projection": lambda n: (_site_map(params_from_strict_projection),
                                                _site_blocks("projection", 54)),
    "conjugate_to_pivot": lambda n: (_site_map(conjugate_to_pivot), _site_blocks("projection", 55)),
    "pair_from_params": lambda n: (_params_pair, *_raw_params(56)),
    "dilate_commuting_pair": lambda n: (dilate_commuting_pair, *_commuting_pairs(n, derive_seed(57, n))),
}
SIZED = ("is_abs_compatible", "projection_compat_equiv", "dilate_commuting_pair")
CASES = [(name, n) for name in STACKED for n in ((2, 4, 8) if name in SIZED else (2,))]


@pytest.mark.parametrize("name, n", CASES)
def test_stack_equals_scalar_calls(name, n):
    fn, *stacks = STACKED[name](n)
    got = fn(*stacks)
    for i in range(B):
        want = fn(*(_element(x, i) for x in stacks))
        assert _bits(_element(got, i)) == _bits(want), (name, i)
    scalar = fn(*(_element(x, 0) for x in stacks))
    floats = {"is_abs_compatible": lambda r: r.residual, "decompose_pair_m2": lambda r: r.index,
              "geometry_report": lambda r: r.residuals["tangency"],
              "spheroid_residual": lambda r: r.relative_spread}
    if name in floats:
        assert type(floats[name](scalar)) is float


def test_compat_report_of_a_stack():
    fn, a, b = STACKED["is_abs_compatible"](4)
    report = fn(a, b)
    assert report.residual.shape == report.compatible.shape == (B,)
    assert 0 < report.compatible.sum() < B and not report
    assert fn(a[::4], b[::4])  # bool() holds when every pair is compatible


def _entry_faults():
    """Per entry point: faults that make one element raise, each a function
    of (stacks, i) that spoils element i."""
    def put(k, value):
        def spoil(stacks, i):
            stacks[k][i] = value if not callable(value) else value(stacks[k][i])
        return spoil

    nan = put(0, lambda x: np.full_like(x, np.nan))
    unitary = {"nan": nan, "non-unitary": put(0, lambda x: 2.0 * x)}
    projection = {"nan": nan, "non-projection": put(0, lambda x: 0.5 * x),
                  "skew": put(0, lambda x: x + np.array([[0.0, 1e-6], [0.0, 0.0]]))}
    return {
        "is_abs_compatible": {"nan": nan, "not-effect": put(1, lambda x: 2.0 * x),
                              "skew": put(0, lambda x: x + np.triu(np.full_like(x, 1e-6), 1))},
        "projection_compat_equiv": {"nan": nan, "non-projection": put(0, lambda x: 0.5 * x),
                                    "not-effect": put(1, lambda x: -x)},
        "pair_from_projections": {"nan": nan, "non-projection": put(0, lambda x: 0.5 * x),
                                  "index": put(2, 1.5), "degenerate": _same_target},
        "decompose_pair_m2": {"nan": nan, "incompatible": put(1, lambda x: x.conj()),
                              "not-strict": put(0, np.diag([1.0, 0.0])), "unpaired": _unpaired},
        "geometry_report": {"nan": nan, "non-projection": put(1, lambda x: 0.5 * x),
                            "index": put(2, -0.5)},
        "bloch_point": {"nan": nan, "trace": put(0, lambda x: 0.9 * x)},
        "spheroid_residual": {"nan": put(1, lambda x: np.where(np.arange(8)[:, None, None] == 3, np.nan, x)),
                              "incompatible": put(1, lambda x: np.array([bloch_matrix([0.5, 0.2, -0.1])] * 8)),
                              "reference": put(0, 0.5 * np.eye(2))},
        "is_strict_unitary": unitary,
        "params_from_strict_unitary": dict(unitary, **{"not-strict": put(0, np.array([np.eye(2)] * 2))}),
        "projection_pair_from_unitary": dict(unitary, **{"not-strict": put(0, np.array([np.eye(2)] * 2))}),
        "is_strict_projection": projection,
        "params_from_strict_projection": dict(projection, **{"not-strict": put(0, np.array([PIVOT_0] * 2))}),
        "conjugate_to_pivot": dict(projection, **{"not-strict": put(0, np.array([PIVOT_0] * 2))}),
        "pair_from_params": {"x0": put(0, lambda x: 0.0 * x), "a0": put(1, lambda x: 1.0 + x),
                             "w": put(2, lambda x: 2.0 * x)},
        "dilate_commuting_pair": {"nan": nan, "not-effect": put(1, lambda x: 2.0 * x),
                                  "not-commuting": put(1, _coupled),
                                  "not-strict": put(0, lambda x: np.where(x == x[0, 0], 0.0, x)),
                                  "sum": _over_one},
    }


def _coupled(b):
    """b with 0.01 added off its diagonal: an effect that no longer
    commutes with the diagonal a."""
    return hermitize(b + np.triu(np.full_like(b, 0.01), 1))


def _over_one(stacks, i):
    """a = b = 0.8 on element i, a strict commuting pair with a^2 + b^2 = 1.28."""
    for x in stacks:
        x[i] = 0.8 * np.eye(len(x[i]))


def _same_target(stacks, i):
    stacks[1][i] = stacks[0][i]


def _unpaired(stacks, i):
    """a and b of element i both moved by 3.5e-9: the residual, 7e-9, is
    within tol.compat, but the moduli of 1-a-b split by 1.4e-8, beyond
    tol.cluster, so they do not pair up."""
    for x in stacks:
        x[i] += 3.5e-9 * np.eye(2)


FAULTS = _entry_faults()


@pytest.mark.parametrize("name, fault", [(name, f) for name in FAULTS for f in FAULTS[name]])
def test_failing_stack_raises_what_its_first_failing_element_raises(name, fault):
    fn, *stacks = STACKED[name](4)
    stacks = [x.copy() for x in stacks]
    FAULTS[name][fault](stacks, 37)
    want = _error(fn, *(x[37] for x in stacks))
    assert want is not None
    assert _error(fn, *stacks) == want
    # with a second fault at 50, the stack raises at the first check either
    # element fails, so it raises what 37 or 50 raises alone, and 37's error
    # when both fail the same check
    for other in FAULTS[name]:
        spoiled = [x.copy() for x in stacks]
        FAULTS[name][other](spoiled, 50)
        got = _error(fn, *spoiled)
        assert got in (want, _error(fn, *(x[50] for x in spoiled))), other
        if other == fault:
            assert got == want, other


@pytest.mark.parametrize("name, fault", [(name, f) for name in ("is_abs_compatible", "decompose_pair_m2")
                                         for f in FAULTS[name]])
def test_failing_stack_costs_the_same_wherever_its_bad_element_sits(linalg_log, name, fault):
    """A stack is checked in one pass, so the same bad pair first or last
    in it takes the same numpy.linalg calls."""
    fn, *stacks = STACKED[name](4)
    stacks = [x.copy() for x in stacks]
    FAULTS[name][fault](stacks, 0)
    last = [np.roll(x, -1, axis=0) for x in stacks]
    assert _error(fn, *stacks) == _error(fn, *last) is not None
    made = []
    for args in (stacks, last):
        linalg_log.clear()
        _error(fn, *args)
        made.append(sorted(call.name for call in linalg_log))
    assert made[0] == made[1], made


@pytest.mark.parametrize("name", sorted(STACKED))
def test_empty_stack_returns_empty_results_or_raises_a_package_error(name):
    """No bare numpy exception: a (0, ...) stack returns results stacked
    over no element, which its own empty slice leaves as they are, or
    raises an AbscompatError."""
    fn, *stacks = STACKED[name](4)
    none = slice(0, 0)
    try:
        got = fn(*(_element(x, none) for x in stacks))
    except AbscompatError:
        return
    assert _bits(_element(got, none)) == _bits(got)


@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_canonical_order_equals_the_bytes_loop(n):
    """Pairs swapped, unswapped and identical, and pairs equal up to their
    last byte, take the swap decision that comparing bytes objects takes."""
    gen = np.random.default_rng(n)
    a = gen.normal(size=(12, n, n)) + 1j * gen.normal(size=(12, n, n))
    b = gen.normal(size=(12, n, n)) + 1j * gen.normal(size=(12, n, n))
    b[1], b[2] = a[1], a[2]
    if n:
        b[2].flat[-1] = np.nextafter(a[2].flat[-1].real, 2.0) + 1j * a[2].flat[-1].imag
        b[3] = a[3]
        b[3].flat[0] = a[3].flat[0] - 1e-300j
    for x, y in ((a, b), (b, a), (a[:1], b[:1]), (a[1:3], b[1:3]), (a[0], b[0])):
        shape = (int(np.prod(x.shape[:-2])), n, n)
        got = [np.reshape(z, shape) for z in _canonical_order(x, y)]
        pairs = list(zip(x.reshape(shape), y.reshape(shape)))
        want = [(v, u) if v.tobytes() < u.tobytes() else (u, v) for u, v in pairs]
        assert _bits(got) == _bits([np.array([u for u, _ in want]), np.array([v for _, v in want])])


# --- batched properties: run equals the loop over single trials ---


def _loop(prop, trials, seed, tol):
    """run as it was before batches: one trial at a time, each drawn and
    checked as a batch of one."""
    out = Outcome()
    for i in range(trials):
        s = derive_seed(seed, i)
        inputs = None
        try:
            stacks = prop.draw([s], prop.sizes[s % len(prop.sizes)])
            inputs = {name: x[0] for name, x in stacks.items()}
            results = {name: (float(np.asarray(value)[0]), bound)
                       for name, (value, bound) in prop.check(stacks, tol).items()}
        except AbscompatError as exc:
            entry = {"trial": i, "seed": s, "error": "%s: %s" % (type(exc).__name__, exc)}
        else:
            for name, (value, _) in results.items():
                if name not in out.worst or value > out.worst[name]:
                    out.worst[name] = value
            bad = {name: value for name, (value, bound) in results.items() if value > bound}
            if not bad:
                continue
            entry = {"trial": i, "seed": s, "violations": bad}
        if not out.failures:
            out.first_inputs = inputs
        out.failures.append(entry)
    return out


# (property, seed, tolerances, which of the 40 trials raise): "all", "some", or
# "mixed" when some raise and some others only miss a bound; a batch that
# raises runs again one trial at a time, and its other trials pass or fail alone
RUNS = [(name, seed, DEFAULT_TOL, None) for name in REGISTRY for seed in (7, 8)]
RUNS += [
    ("compat", 9, DEFAULT_TOL.override(compat=1e-17), "all"),
    ("compat", 10, DEFAULT_TOL.override(compat=2e-15), "mixed"),
    ("canonical", 10, DEFAULT_TOL.override(canon=2e-15), "some"),  # none only misses a bound
    ("compat", 10, DEFAULT_TOL.override(block=1e-15), "some"),  # in five-block; none only misses a bound
    ("fiveblock", 10, DEFAULT_TOL.override(block=1e-14), "some"),  # the off-block bound
    ("fiveblock", 10, DEFAULT_TOL.override(compat=3e-15), "some"),  # the strict blocks' _built_pair
    ("params", 10, DEFAULT_TOL.override(proj=3e-16), "mixed"),  # the pivot conjugation
    ("dilation", 10, DEFAULT_TOL.override(spec=0.05), "some"),  # the strictness gates
]


def _run_id(name, seed, tol, _):
    others = "".join("-%s%g" % (f, getattr(tol, f)) for f in ("block", "proj", "spec")
                     if getattr(tol, f) != getattr(DEFAULT_TOL, f))
    return "%s-%d-%g%s" % (name, seed, tol.compat, others)


@pytest.mark.parametrize("name, seed, tol, raising", RUNS, ids=[_run_id(*run) for run in RUNS])
def test_run_equals_the_loop_over_single_trials(name, seed, tol, raising):
    prop = REGISTRY[name]
    got, want = run(prop, 40, seed, tol), _loop(prop, 40, seed, tol)
    assert _bits(got.worst) == _bits(want.worst)
    assert got.failures == want.failures
    assert _bits(got.first_inputs) == _bits(want.first_inputs)
    errors = sum("error" in entry for entry in got.failures)
    if raising == "all":
        assert errors == 40 and got.first_inputs["a"].ndim == 2
    elif raising == "some":
        assert 0 < errors < 40
    elif raising == "mixed":
        assert 0 < errors < len(got.failures) < 40


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_a_trial_draws_the_same_bits_in_any_batch(name):
    prop = REGISTRY[name]
    seeds = [derive_seed(10, i) for i in range(6)]
    batch = prop.draw(seeds, prop.sizes[-1])
    for j, s in enumerate(seeds):
        alone = prop.draw([s], prop.sizes[-1])
        assert _bits({k: x[j] for k, x in batch.items()}) == _bits({k: x[0] for k, x in alone.items()})


# --- stacked draws: each trial draws what the per-trial generators drew ---


def _ref_gaussians(gen, count):
    """Box-Muller normals as the one-trial generators drew them."""
    pairs = (count + 1) // 2
    u = gen.random((2, pairs))
    r = np.sqrt(-2.0 * np.log1p(-u[0]))
    th = 2.0 * np.pi * u[1]
    out = np.empty(2 * pairs)
    out[0::2], out[1::2] = r * np.cos(th), r * np.sin(th)
    return out[:count]


def _ref_haar(gen, n):
    z = _ref_gaussians(gen, 2 * n * n)
    q, r = np.linalg.qr(((z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)).reshape(n, n))
    d = np.diagonal(r).copy()
    mod = np.abs(d)
    d[mod == 0] = 1.0
    mod[mod == 0] = 1.0
    return q * (d / mod)


def _ref_spectral(u, vals):
    return hermitize((u * vals) @ dagger(u))


def _ref_canonical_pair(n, seed, margin=0.1):
    """x0 and the pair random_abscompat_pair drew in one trial: per-site
    parameters, the site blocks ((1-x0) P0 + x0 P, (1-x0) P0 + x0 (1-P)),
    and the Haar conjugation."""
    gen = _fresh(seed)
    m = n // 2
    x0 = margin + (1.0 - 2.0 * margin) * gen.random(m)
    a0 = margin + (1.0 - 2.0 * margin) * gen.random(m)
    w = np.exp(2j * np.pi * gen.random(m))
    u = _ref_haar(gen, n)
    w = w / np.abs(w)
    s0 = np.sqrt(1.0 - a0 * a0)
    proj = np.empty((m, 2, 2), dtype=complex)
    proj[:, 0, 0], proj[:, 0, 1] = a0 * a0, w * a0 * s0
    proj[:, 1, 0], proj[:, 1, 1] = np.conj(w) * a0 * s0, 1.0 - a0 * a0
    lam = x0[:, None, None]
    pair = []
    for site in ((1.0 - lam) * PIVOT_0 + lam * proj, (1.0 - lam) * PIVOT_0 + lam * (np.eye(2) - proj)):
        full = np.zeros((n, n), dtype=complex)
        for k in range(m):
            full[2 * k:2 * k + 2, 2 * k:2 * k + 2] = site[k]
        pair.append(hermitize(u @ full @ dagger(u)))
    return (x0, *pair)


def _ref_orthogonal_pair(n, seed, margin=0.1):
    gen = _fresh(seed)
    k = int(gen.integers(1, n))
    va, vb = np.zeros(n), np.zeros(n)
    va[:k] = margin + (1.0 - margin) * gen.random(k)
    vb[k:] = margin + (1.0 - margin) * gen.random(n - k)
    u = _ref_haar(gen, n)
    return _ref_spectral(u, va), _ref_spectral(u, vb)


def _ref_commuting_projection_effect(n, seed, margin=0.1):
    gen = _fresh(seed)
    k = int(gen.integers(1, n))
    pvals = np.zeros(n)
    pvals[:k] = 1.0
    avals = margin + (1.0 - 2.0 * margin) * gen.random(n)
    u = _ref_haar(gen, n)
    return _ref_spectral(u, pvals), _ref_spectral(u, avals)


def _ref_projection(n, rank, seed):
    v = _ref_haar(_fresh(seed), n)[:, :rank]
    return hermitize(v @ dagger(v))


def _ref_strict_effect(n, seed, margin=0.1):
    gen = _fresh(seed)
    vals = margin + (1.0 - 2.0 * margin) * gen.random(n)
    return _ref_spectral(_ref_haar(gen, n), vals)


def _ref_pair_spec(seed, margin=0.05, gen=None):
    """random_pair_spec as one loop: index, pivot, then targets until the
    exact norm gap to the pivot and its complement exceeds 0.05."""
    gen = gen or _fresh(seed)
    index = margin + (1.0 - 2.0 * margin) * float(gen.random())
    pivot = _reference_rank_one(gen)
    while True:
        target = _reference_rank_one(gen)
        gap = float(np.min(_eig_norm(np.array((pivot - target, pivot - (np.eye(2) - target))))))
        if gap > 0.05:
            return pivot, target, index


def _ref_commuting_strict_pair(n, seed, margin=0.05):
    """random_commuting_strict_pair as one loop: each eigenvalue pair drawn
    until its squares sum to at most 1 - margin."""
    gen = _fresh(seed)
    hi = np.sqrt(1.0 - margin)
    alpha, beta = np.empty(n), np.empty(n)
    for i in range(n):
        while True:
            x, y = margin + (hi - margin) * gen.random(2)
            if x * x + y * y <= 1.0 - margin:
                alpha[i], beta[i] = x, y
                break
    return np.diag(alpha).astype(complex), np.diag(beta).astype(complex)


def _ref_projection_params(m, seed, margin=0.1):
    gen = _fresh(seed)
    a0 = margin + (1.0 - 2.0 * margin) * gen.random(m)
    w = np.exp(2j * np.pi * gen.random(m))
    return StrictProjectionParams(a0, w / np.abs(w))  # the draw normalizes each phase, the record keeps it


def _ref_unitary_params(m, seed, margin=0.1):
    gen = _fresh(seed)
    a0 = margin + (1.0 - 2.0 * margin) * gen.random(m)
    w1, w2, w3 = (w / np.abs(w) for w in np.exp(2j * np.pi * gen.random((3, m))))
    return StrictUnitaryParams(a0, w1, w2, w3)


def _public_canonical_pair(n, seed):
    return (random_pair_params(n, seed, 0.1)[0], *random_abscompat_pair(n, seed, 0.1))


REFERENCE = {"pair": _ref_canonical_pair, "orthogonal": _ref_orthogonal_pair,
             "commuting": _ref_commuting_projection_effect, "projection": _ref_projection,
             "effect": _ref_strict_effect, "spec": _ref_pair_spec, "partners": _reference_partners,
             "haar": lambda n, seed: _ref_haar(_fresh(seed), n),
             "strict_commuting": _ref_commuting_strict_pair, "unitary_params": _ref_unitary_params,
             "projection_params": _ref_projection_params}
PUBLIC = {"pair": _public_canonical_pair, "orthogonal": random_orthogonal_pair,
          "commuting": lambda n, seed: _commuting_projection_effects(n, seed, 0.1),
          "projection": random_projection, "effect": lambda n, seed: _strict_effects(n, seed, 0.1),
          "spec": random_pair_spec, "partners": random_spheroid_partners,
          "haar": haar_unitary, "strict_commuting": random_commuting_strict_pair,
          "unitary_params": random_strict_unitary_params,
          "projection_params": random_strict_projection_params}


def _trial_draw(gens, name, seed, n):
    """One trial's inputs of a campaign entry, drawn by gens one trial at a
    time: the per-trial draw code of the registry before stacked draws."""
    def s(i):
        return derive_seed(seed, i)

    if name in ("compat", "canonical"):
        x0, a, b = gens["pair"](n, s(1))
        if name == "canonical":
            return {"x0": x0, "a": a, "b": b}
        oa, ob = gens["orthogonal"](n, s(2))
        return {"a": a, "b": b, "oa": oa, "ob": ob}
    if name == "fiveblock":
        gen = _fresh(seed)
        sa, sb = gens["pair"](n, s(1))[1:]
        slots = []
        for kind in range(4):  # unit_a, unit_b, null_a, null_b
            for _ in range(int(gen.integers(0, 2))):
                v, w = 0.1 + 0.8 * gen.random(), gen.random()
                slots.append(((1.0, w), (w, 1.0), (0.0, v), (v, 0.0))[kind])
        dim = n + len(slots)
        a = np.zeros((dim, dim), dtype=complex)
        b = np.zeros_like(a)
        a[:n, :n], b[:n, :n] = sa, sb
        diag = np.arange(n, dim)
        a[diag, diag], b[diag, diag] = np.reshape(slots, (-1, 2)).T
        u = gens["haar"](dim, s(2))
        return {"a": hermitize(u @ a @ dagger(u)), "b": hermitize(u @ b @ dagger(u)), "strict_rank": n}
    if name == "params":
        return {"unitary": gens["unitary_params"](n, s(1)), "projection": gens["projection_params"](n, s(2))}
    if name == "dilation":
        return dict(zip("ab", gens["strict_commuting"](n, s(1))))
    if name in ("m2", "geometry"):
        pivot, target, index = gens["spec"](s(1))
        a, b = pair_from_projections(pivot, target, index)
        x = {"pivot": pivot, "target": target, "index": index, "a": a, "b": b}
        if name == "geometry":
            x["partners"] = np.array(gens["partners"](a, 8, s(2)))
        return x
    oa, ob = gens["orthogonal"](n, s(1))
    p, e = gens["commuting"](n, s(2))
    return {"oa": oa, "ob": ob, "p": p, "e": e,
            "p2": gens["projection"](n, 1 + seed % (n - 1), s(3)), "e2": gens["effect"](n, s(4))}


def _built_params(x):
    """The parameter records a params trial's raw draw builds, as the
    params check builds them."""
    return {"unitary": StrictUnitaryParams(x["a0"], x["w1"], x["w2"], x["w3"]),
            "projection": StrictProjectionParams(x["p_a0"], x["p_w"])}


DRAWN = ("compat", "canonical", "m2", "geometry", "equivalences", "fiveblock", "params", "dilation")
DRAW_CASES = [(name, n) for name in DRAWN for n in REGISTRY[name].sizes + ((16,) if name == "compat" else ())]


@pytest.mark.parametrize("name, n", DRAW_CASES)
def test_stacked_draws_equal_the_per_trial_generators(name, n):
    """Every trial of a stacked campaign draw has the bits of the one-trial
    draw code, with a fresh Philox per trial, and of the generators, each
    a batch of one; a params trial, whose draw is raw, builds the
    records those draw.  In the m2 and geometry batches three trials
    reject their first target and draw again alone."""
    seeds = [derive_seed(38, i) for i in range(200 if n == 2 else 40)]
    batch = REGISTRY[name].draw(seeds, n)
    for j, s in enumerate(seeds):
        trial = {k: x[j] for k, x in batch.items()}
        got = {k: _bits(x) for k, x in (_built_params(trial) if name == "params" else trial).items()}
        assert got == {k: _bits(x) for k, x in _trial_draw(REFERENCE, name, s, n).items()}, j
        assert got == {k: _bits(x) for k, x in _trial_draw(PUBLIC, name, s, n).items()}, j


def test_a_rekeyed_philox_gives_the_stream_of_a_fresh_one():
    """One Philox re-keyed per seed hands out what a new Philox(key=seed)
    does, though each stream stops inside a Philox block (15 uint64s)
    with half a uint64 of integers left in its buffer."""
    seeds = [0, 1, 2**64 - 1, derive_seed(7, 3), 2**70 + 5]
    draws = (lambda g: g.random(3), lambda g: g.integers(1, 2**31), lambda g: g.random((2, 5)),
             lambda g: g.integers(1, 7, size=2))
    for gen, s in zip(_streams(seeds), seeds):
        fresh = _fresh(s)
        for draw in draws:
            assert np.array_equal(draw(gen), draw(fresh)), s


@pytest.mark.parametrize("margin", (0.05, 0.3, 0.45))
def test_commuting_draws_keep_the_points_of_the_one_by_one_loop(margin):
    """Each trial of a commuting draw keeps the first n admissible points of
    its stream, as the one-by-one loop does; a trial of a stacked draw
    draws what it draws alone (test_stacked_draws_equal_the_per_trial_generators).
    A margin that leaves almost no point admissible raises."""
    seeds = [derive_seed(58, i) for i in range(30)]
    for n in (1, 3, 8):
        for j, s in enumerate(seeds):
            got = random_commuting_strict_pair(n, s, margin)
            assert _bits(got) == _bits(_ref_commuting_strict_pair(n, s, margin)), (n, j)
    with pytest.raises(BadMargin, match="leaves almost no admissible pairs"):
        random_commuting_strict_pair(2, seeds[0], 0.4999)


def _open_candidates(seeds):
    """How many candidate targets of random_pair_spec over seeds have a
    difference whose Frobenius norm lies in the band (separation (1 - 2
    _ROUNDING), sqrt(2) separation (1 + 2 _ROUNDING)], where the bounds
    leave the decision to the exact norm, at its separation of 0.05."""
    separation = 0.05
    count, top = 0, np.sqrt(2.0) * separation * (1.0 + 2.0 * _ROUNDING)
    low = separation * (1.0 - 2.0 * _ROUNDING)
    for seed in seeds:
        gen = _fresh(seed)
        gen.random()
        pivot = _reference_rank_one(gen)
        while True:
            target = _reference_rank_one(gen)
            diffs = np.array((pivot - target, pivot - (np.eye(2) - target)))
            frob = _frobenius(diffs)
            count += bool(np.any((frob > low) & (frob <= top)))
            if np.all(_eig_norm(diffs) > separation):
                break
    return count


def test_draws_stay_stacked(linalg_log):
    """A 30-trial campaign draw makes at most one QR per generator, and the
    spec draw of the m2 and geometry suites, random_pair_spec trial by
    trial, makes an eigvalsh only for a candidate target with a Frobenius
    norm in the band, and no svd.  Counts, unlike timings, hold on any
    host."""
    seeds = [derive_seed(32, i) for i in range(30)]
    generators = {"compat": 2, "canonical": 1, "m2": 0, "geometry": 0, "equivalences": 4}
    for name, count in generators.items():
        for n in REGISTRY[name].sizes:
            linalg_log.clear()
            REGISTRY[name].draw(seeds, n)
            assert linalg_log.counts("qr")["qr"] <= count, (name, n)
    linalg_log.clear()
    for s in seeds:
        random_pair_spec(s, 0.05)
    calls = linalg_log.counts("svd", "eigvalsh")
    assert calls["svd"] == 0 and calls["eigvalsh"] <= _open_candidates(seeds)


def _assert_shapes_and_lone_bits(log, shapes):
    """The eigvalsh calls of log took arguments of these shapes, and each
    matrix of each argument got the spectrum of its own lone eigvalsh, bit
    for bit."""
    seen = log.of("eigvalsh")
    assert [call.arg.shape for call in seen] == shapes
    for call in seen:
        n = call.arg.shape[-1]
        for one, spectrum in zip(call.arg.reshape(-1, n, n), call.result.reshape(-1, n)):
            assert spectrum.tobytes() == np.linalg.eigvalsh(one).tobytes(), call.arg.shape


LONE_SIZES = (8, 40, 96)


def test_canonical_check_stays_stacked(linalg_log):
    """The canonical check of a 30-trial batch makes three numpy.linalg
    calls at each size, where one trial at a time made six or seven per
    trial: the eigh of 1-a-b and the svd of the cross blocks of the whole
    batch, and the svd of the check's own norms.  A lone canonicalize
    makes one eigh of 1-a-b and one svd at every size: the Frobenius
    norms of its two reconstruction residuals settle them, and the eigh's
    Sylvester bound the pair.  Counts, unlike timings, hold on any
    host."""
    seeds = [derive_seed(33, i) for i in range(30)]
    prop = REGISTRY["canonical"]
    batches = {n: prop.draw(seeds, n) for n in prop.sizes}
    lone = {n: random_abscompat_pair(n, derive_seed(33, 30)) for n in LONE_SIZES}
    for n, stacks in batches.items():
        linalg_log.clear()
        prop.check(stacks, DEFAULT_TOL)
        assert len(linalg_log) <= 3, (n, [call.name for call in linalg_log])

    for n, pair in lone.items():
        linalg_log.clear()
        canonicalize(*pair)
        assert [(call.name, call.arg.shape) for call in linalg_log] == [("eigh", (n, n)), ("svd", (n // 2, n // 2))]


def test_a_clustered_pair_in_a_stack_gets_its_own_bits(linalg_log):
    """A pair whose x0 repeats a value has a cluster in the spectrum of
    |a-b| on the positive half of 1-a-b, which only that pair refines
    with a, in one more eigh; every pair of the stack still gets the bits
    of its own canonicalize and exchanged_pivot_form."""
    x0 = np.array([0.3, 0.3, 0.6])
    params = StrictProjectionParams([0.4, 0.5, 0.7], np.exp(1j * np.array([0.2, 1.1, 2.0])))
    ca, cb = pair_from_params(x0, params)
    u = generate.haar_unitary(6, derive_seed(34, 0))
    pairs = [random_abscompat_pair(6, derive_seed(34, i)) for i in range(1, 6)]
    pairs.insert(2, (hermitize(u @ ca @ dagger(u)), hermitize(u @ cb @ dagger(u))))
    a, b = (np.array(x) for x in zip(*pairs))

    linalg_log.clear()
    stacked = _canonical(a, b, DEFAULT_TOL)
    # the eigh of the stack 1-a-b, then that of a on the one cluster, two of x0's three sites
    assert [call.arg.shape for call in linalg_log.of("eigh")] == [(6, 6, 6), (2, 2)]
    np.testing.assert_allclose(stacked.x0[2], x0, rtol=0.0, atol=1e-12)
    exchanged = exchanged_pivot_form(stacked)
    for j, pair in enumerate(pairs):
        alone = canonicalize(*pair)
        assert stacked.u0[j].tobytes() == alone.u0.tobytes(), j
        assert stacked.x0[j].tobytes() == alone.x0.tobytes(), j
        assert stacked.residual[j].tobytes() == np.float64(alone.residual).tobytes(), j
        # the stacked form's exchange is each pair's own, and so are the
        # pairs both forms checked
        ex = exchanged_pivot_form(alone)
        assert exchanged.u[j].tobytes() == ex.u.tobytes(), j
        for x, y in zip(stacked.reconstruct() + exchanged.reconstruct(), alone.reconstruct() + ex.reconstruct()):
            assert x[j].tobytes() == y.tobytes(), j


# --- stacked five-block decomposition: each pair gets the bits it gets alone ---


def _slotted(seed, strict, slots):
    """A strict pair of size strict beside the diagonal slots (a-value,
    b-value), under a Haar conjugation."""
    sa, sb = random_abscompat_pair(strict, derive_seed(seed, 1))
    n = strict + len(slots)
    a, b = np.zeros((2, n, n), dtype=complex)
    a[:strict, :strict], b[:strict, :strict] = sa, sb
    a[strict:, strict:], b[strict:, strict:] = (np.diag(v) for v in zip(*slots))
    u = generate.haar_unitary(n, derive_seed(seed, 2))
    return hermitize(u @ a @ dagger(u)), hermitize(u @ b @ dagger(u))


# unit_a, unit_b on the kernel of a, unit_b on its rest, null_a, null_b
UA, UB_KERNEL, UB_REST, NA, NB = (1.0, 0.3), (0.0, 1.0), (0.4, 1.0), (0.0, 0.6), (0.7, 0.0)
# a strict 4x4 pair beside four slots: the counts of a's kernel and of its
# eigenspace at 1 give four patterns, and the first of them splits into two
# by the counts of b at 1 and at 0 on the rest
MIXED = [[UA, UB_REST, NA, NB], [UA, UB_REST, NA, NB], [UA, UB_REST, UB_REST, NA],
         [UB_KERNEL, UB_REST, NA, NB], [UA, UA, NB, NB], [UB_KERNEL, NA, NA, UA]]
# strict 2x2, 4x4 and 6x6 pairs beside slots filling 8x8: six patterns,
# two for each width of the strict block
WIDTHS = [[UA, UB_KERNEL, UB_REST, NA, NB, NB], [UA, UA, UB_REST, NA, NA, NB], [UA, UB_REST, NA, NB],
          [UB_KERNEL, UB_REST, NA, UA], [UA, NB], [UB_KERNEL, NA]]


def _stack(kind, n):
    seeds = [derive_seed(37, i) for i in range(12)]
    draw = {"orthogonal": random_orthogonal_pair, "strict": random_abscompat_pair}.get(kind)
    if draw:
        return tuple(np.array(x) for x in zip(*(draw(n, s) for s in seeds)))
    slotted = MIXED if kind == "mixed" else WIDTHS
    pairs = [_slotted(derive_seed(38, i), n - len(slots), slots) for i, slots in enumerate(slotted)]
    return tuple(np.array(x) for x in zip(*pairs))


FIVE_BLOCK_STACKS = [("orthogonal", n) for n in (2, 4, 8, 40)] + [("strict", n) for n in (2, 4, 8)]
FIVE_BLOCK_STACKS += [("mixed", 8), ("widths", 8)]


@pytest.mark.parametrize("kind, n", FIVE_BLOCK_STACKS)
def test_five_block_stack_elements_equal_their_lone_calls(kind, n):
    """Every pair of a stack, whichever pattern of block ranks it has, gets
    the bases, blocks and projections of its own five_block_decompose, and
    the residual its certificate took has the bits of the pair's own: the
    Sylvester bound from the eigh of 1-a-b that is_abs_compatible takes,
    which settles every pair here, whatever the pairs beside it in the
    stack."""
    a, b = _stack(kind, n)
    residual, groups = _five_blocks(a, b, DEFAULT_TOL)
    alone = [_five_blocks(x, y, DEFAULT_TOL)[0] for x, y in zip(a, b)]
    assert residual.tobytes() == np.array(alone).tobytes()
    assert residual.tobytes() == is_abs_compatible(a, b).residual.tobytes()
    assert np.all(residual + _ROUNDING * n <= DEFAULT_TOL.spec)
    seen = []
    for at, fb in groups:
        for j, (i,) in enumerate(zip(*at)):
            alone = five_block_decompose(a[i], b[i])
            for name in BLOCK_NAMES:
                basis = fb.bases[name][j]
                for x, y in ((basis, alone.bases[name]), (hermitize(basis @ dagger(basis)), alone.projections()[name]),
                             (fb.blocks_a[name][j], alone.blocks_a[name]),
                             (fb.blocks_b[name][j], alone.blocks_b[name])):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes(), (i, name)
            seen.append(i)
    assert sorted(seen) == list(range(len(a)))
    if kind == "mixed":
        assert len(groups) == 5
        assert {j for at, _ in groups for j in at[0]} == set(range(len(MIXED)))
        units_b = [five_block_decompose(a[i], b[i]).ranks()["unit_b"] for i in (3, 5)]
        assert units_b == [2, 1]
    if kind == "widths":
        assert sorted(fb.bases["strict"].shape[-1] for _, fb in groups) == [2, 2, 4, 4, 6, 6]


def test_compat_check_stays_stacked(linalg_log):
    """The compat check of a 30-trial batch makes a fixed number of
    numpy.linalg calls per pattern of block ranks, where one five-block
    call per trial made seven per trial: the orthogonal pairs are
    certified by the Sylvester bound of their one stacked eigh of 1-a-b,
    and their 0x0 strict blocks take no factorization.  The residual of
    the pairs takes one eigh of the stack 1-a-b, whose Sylvester bound
    certifies every pair, so a-b takes none.  At every size, a lone call
    puts its operands in one eigvalsh: the two effects of an uncertified
    pair, and the three matrices of the exact five-block bounds, where
    the lone pair is a stack of one; the Cholesky gate settles the
    strictness of its strict block.  Each matrix gets the bits it gets
    alone.  Counts, unlike timings, hold on any host."""
    seeds = [derive_seed(39, i) for i in range(30)]
    prop = REGISTRY["compat"]
    batches = {n: prop.draw(seeds, n) for n in prop.sizes}
    patterns = {n: len({tuple(five_block_decompose(*pair).ranks().values()) for pair in zip(x["oa"], x["ob"])})
                for n, x in batches.items()}
    lone = {n: _slotted(derive_seed(39, 30), n - 4, [UA, UB_KERNEL, NA, NB]) for n in LONE_SIZES}
    for n, stacks in batches.items():
        linalg_log.clear()
        prop.check(stacks, DEFAULT_TOL)
        assert len(linalg_log) <= 5 + 2 * patterns[n], (n, patterns[n], [call.name for call in linalg_log])

    for n, (a, b) in lone.items():
        linalg_log.clear()
        assert not is_abs_compatible(a, a)
        # the exact residual's own norm, of the pair its bound left open as
        # a stack of one, then the two effects
        _assert_shapes_and_lone_bits(linalg_log, [(1, n, n), (2, n, n)])
        linalg_log.clear()
        with pytest.raises(PostconditionFailure, match="off-block bound"):
            five_block_decompose(a, b, DEFAULT_TOL.override(block=1e-15))
        _assert_shapes_and_lone_bits(linalg_log, [(3, 1, n, n)])


# (property, size): {residual: (the Tolerances field its bound reads, the
# literal bound it replaced, or None)}
REGISTRY_BOUNDS = {
    ("m2", 2): dict.fromkeys(("index_error", "pivot_error", "target_error", "roundtrip"), ("geo", None)),
    ("canonical", 4): {"x0_multiset": ("spec", 1e-9)},
    ("geometry", 2): {"spheroid_spread": ("geo", 1e-8)},
    ("params", 2): {"unitarity": ("unit", 1e-9), "idempotence": ("proj", 1e-9),
                    "pivot_conjugation": ("proj", 1e-9)},
    ("dilation", 2): {"jordan_block": ("proj", 1e-10)},
}


@pytest.mark.parametrize("name, size", list(REGISTRY_BOUNDS))
def test_registry_bounds_follow_their_tolerance(name, size):
    """Each of these bounds is a Tolerances field, so its --tol-* flag
    reaches it, and no default is looser than the literal it replaced."""
    prop, fields = REGISTRY[name], REGISTRY_BOUNDS[name, size]
    stacks = prop.draw([derive_seed(40, i) for i in range(4)], size)
    for scale in (1.0, 100.0):
        tol = DEFAULT_TOL.override(**{f: scale * getattr(DEFAULT_TOL, f) for f, _ in fields.values()})
        bounds = {k: bound for k, (_, bound) in prop.check(stacks, tol).items()}
        assert {k: bounds[k] for k in fields} == {k: getattr(tol, f) for k, (f, _) in fields.items()}
    assert all(getattr(DEFAULT_TOL, f) <= literal for f, literal in fields.values() if literal)


SCALES = (0.5, 0.7, 2**-0.5, 0.75, 0.99, 1.0, 1.01, 1.4, 2**0.5, 1.5, 3.0)


def test_spec_separation_decisions_equal_the_exact_norm(linalg_log):
    """_separated, the one separation test of the spec validator and of
    random_pair_spec, keeps a pivot apart from a target, and from its
    complement, exactly when the exact norm of the difference is strictly
    beyond the bound, though the Frobenius cuts settle most candidates.
    For rank-one P and Q at angle theta, ||P - Q|| = sin(theta) and
    ||P - Q||_F = sqrt(2) sin(theta), so the scales from 1/sqrt(2) up to
    1 take an eigvalsh and the others none: the lower cut sits a rounding
    allowance below the bound, so 1/sqrt(2) is inside the band on every
    host.  A stack factorizes only the differences the cuts leave open."""
    separation = 0.05
    low, top = separation * (1.0 - 2.0 * _ROUNDING), np.sqrt(2.0) * separation * (1.0 + 2.0 * _ROUNDING)
    pivot = np.diag([1.0, 0.0]).astype(complex)
    targets = []
    for scale in SCALES:
        theta = np.arcsin(scale * separation)
        v = np.array([np.cos(theta), np.sin(theta) * np.exp(0.3j)])
        near = hermitize(np.outer(v, np.conj(v)))
        for target in (near, np.eye(2) - near):  # near the pivot, near its complement
            targets.append(target)
            diffs = np.array((pivot - target, pivot - (np.eye(2) - target)))
            norms, frob = _eig_norm(diffs), _frobenius(diffs)
            linalg_log.clear()
            assert _separated(pivot, target, separation).tolist() == (norms > separation).tolist(), scale
            between = bool(np.any((frob > low) & (frob <= top)))
            assert linalg_log.counts("eigvalsh", "svd") == {"eigvalsh": int(between), "svd": 0}, scale
            assert between == (2**-0.5 <= scale <= 1.0), scale
            gap = float(np.min(norms))
            for s in (gap, np.nextafter(gap, 0.0), np.nextafter(gap, 1.0)):
                assert _separated(pivot, target, s).tolist() == (norms > s).tolist(), (scale, s)
    stacked = _separated(np.array([pivot] * len(targets)), np.array(targets), separation)
    assert stacked.tolist() == [_separated(pivot, t, separation).tolist() for t in targets]
    one_open = np.array([targets[i] for i in (0, SCALES.index(0.99) * 2, -1)])  # scales 0.5, 0.99, 3
    linalg_log.clear()
    got = _separated(np.array([pivot] * 3), one_open, separation)
    assert got.tolist() == [[False, True], [False, True], [True, True]]
    assert [call.arg.shape for call in linalg_log.of("eigvalsh")] == [(1, 2, 2)]


def _unseparated_stream(seed, unseparated):
    """A fixed stream of uniforms for seed; for a seed in unseparated, the
    uniforms 5-8 of its first target repeat the uniforms 1-4 of its pivot,
    so that target equals the pivot and is not separated from it."""
    values = np.random.default_rng(seed).random(400)
    if seed in unseparated:
        values[5:9] = values[1:5]
    return values


def test_a_trial_with_an_unseparated_target_draws_again_alone(monkeypatch):
    """A trial whose first target is not separated from its pivot draws
    again from the start of its own stream, as the one-trial loop did, and
    the other trials of the batch keep their stacked draws."""
    seeds = [derive_seed(33, i) for i in range(4)]
    spec, partners = [derive_seed(s, 1) for s in seeds], [derive_seed(s, 2) for s in seeds]
    unseparated = {spec[1], spec[2]}
    monkeypatch.setattr(generate, "_streams",
                        lambda seeds: (_Stream(_unseparated_stream(s, unseparated)) for s in seeds))
    batch = REGISTRY["geometry"].draw(seeds, 2)
    for j in range(len(seeds)):
        spec_gen = _Stream(_unseparated_stream(spec[j], unseparated))
        pivot, target, index = _ref_pair_spec(None, gen=spec_gen)
        partner_gen = _Stream(_unseparated_stream(partners[j], unseparated))
        want = _reference_partners(batch["a"][j], 8, None, gen=partner_gen)
        assert _bits((batch["pivot"][j], batch["target"][j], batch["index"][j], batch["partners"][j])) \
            == _bits((pivot, target, np.float64(index), np.array(want))), j
        assert (spec_gen.pos > 9) == (j in (1, 2)) and partner_gen.pos == 32, j
