"""The public boundary: inputs in any memory layout, and the number of
factorizations one call makes."""

import math

import numpy as np
import pytest

from abscompat import DEFAULT_TOL, AbscompatError, DomainError, PostconditionFailure, compat
from abscompat.canonical import canonicalize
from abscompat.compat import (
    BLOCK_NAMES,
    CompatReport,
    _pair_spectra,
    five_block_decompose,
    is_abs_compatible,
    is_orthogonal,
)
from abscompat.generate import (
    derive_seed,
    haar_unitary,
    random_abscompat_pair,
    random_pair_spec,
    random_spheroid_partners,
)
from abscompat.geometry import decompose_pair_m2, pair_from_projections, spheroid_residual
from abscompat.hermitian import (
    _effects,
    _hnorm,
    dagger,
    hermitize,
    null_projection,
    support_projection,
)


def _strided(x):
    buf = np.zeros((2 * x.shape[0], 2 * x.shape[1]), dtype=x.dtype)
    buf[::2, ::2] = x
    return buf[::2, ::2]


LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray, "strided": _strided}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_any_memory_layout(layout):
    f = LAYOUTS[layout]
    # n >= 128 is where the generator's own products come out in F order
    a, b = random_abscompat_pair(128, 7)
    assert is_abs_compatible(f(a), f(b)).compatible
    assert canonicalize(f(a), f(b)).residual <= DEFAULT_TOL.canon

    c, d = random_abscompat_pair(4, 8)
    assert five_block_decompose(f(c), f(d)).ranks()["strict"] == 4
    cf = canonicalize(f(c), f(d))
    np.testing.assert_allclose(cf.x0, canonicalize(c, d).x0, rtol=0.0, atol=1e-12)

    pivot, target, index = random_pair_spec(9)
    p, q = pair_from_projections(pivot, target, index)
    assert abs(decompose_pair_m2(f(p), f(q)).index - index) <= 1e-9


@pytest.mark.parametrize("fn", [is_abs_compatible, five_block_decompose, canonicalize, is_orthogonal],
                         ids=lambda fn: fn.__name__)
def test_non_numeric_operands_raise_domain_error(fn):
    a = random_abscompat_pair(4, 3)[0]
    for args in ((a, "abc"), ("abc", a), (a, [[1, 2], [3]]), (a, 10**400)):
        with pytest.raises(DomainError, match="expected a numeric matrix"):
            fn(*args)
    # the spectrum of the first operand is still checked before the second
    with pytest.raises(DomainError, match=r"largest eigenvalue 2\.000e\+00 exceeds 1"):
        fn(2.0 * np.eye(4), "abc")


def _direct_sum(sa, sb, slots, seed):
    """The pair sa + diag(slot a-values), sb + diag(slot b-values) under a
    Haar conjugation u; returns (a, b, u)."""
    k = len(sa)
    n = k + len(slots)
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros_like(a)
    a[:k, :k], b[:k, :k] = sa, sb
    a[k:, k:], b[k:, k:] = np.diag([s[0] for s in slots]), np.diag([s[1] for s in slots])
    u = haar_unitary(n, seed)
    return hermitize(u @ a @ dagger(u)), hermitize(u @ b @ dagger(u)), u


def _assembled_pair(seed):
    """A strict 4x4 pair beside one a-unit, b-unit, a-null and b-null slot."""
    sa, sb = random_abscompat_pair(4, derive_seed(seed, 1))
    slots = [(1.0, 0.5), (0.3, 1.0), (0.0, 0.7), (0.6, 0.0)]
    return _direct_sum(sa, sb, slots, derive_seed(seed, 2))[:2]


# Matrices that numpy.linalg factorizes in one call at n = 8; a call on a
# (k, n, n) stack counts k, so stacking several matrices into one call
# cannot hide a factorization:
#  - is_abs_compatible: one eigh each of a-b and 1-a-b and one eigvalsh
#    for the norm of the residual, which also certifies both operands as
#    effects, so neither takes a validating eigvalsh;
#  - canonicalize: one eigvalsh per operand for its strictness, the same
#    three, one eigh of |a-b| on the positive half of 1-a-b, one svd for
#    the polar factor of the cross block, and one eigvalsh per
#    reconstruction residual;
#  - five_block_decompose: the same three as is_abs_compatible, one eigh
#    of a, one eigh of b on each of the kernel of a and the rest, two
#    eigvalsh for the strictness of the strict block, and two eigh and
#    one eigvalsh for its residual; the orthonormality, off-block and
#    block-content checks are settled by Frobenius norms;
#  - support_projection and null_projection: one eigh, whose eigenvalues
#    also validate the effect;
#  - decompose_pair_m2 (2x2): one eigvalsh per operand, the three of the
#    residual, and in the round trip through pair_from_projections one
#    eigvalsh per rebuilt operand for its strictness and the same three;
#    the separation tests and the round-trip norms are settled by
#    Frobenius bounds.
BUDGET = {
    "is_abs_compatible": {"eigh": 2, "eigvalsh": 1, "svd": 0},
    "canonicalize": {"eigh": 3, "eigvalsh": 5, "svd": 1},
    "five_block_decompose": {"eigh": 7, "eigvalsh": 4, "svd": 0},
    "support_projection": {"eigh": 1, "eigvalsh": 0, "svd": 0},
    "null_projection": {"eigh": 1, "eigvalsh": 0, "svd": 0},
    "decompose_pair_m2": {"eigh": 4, "eigvalsh": 6, "svd": 0},
}


def test_factorization_budget(monkeypatch):
    a, b = random_abscompat_pair(8, derive_seed(5, 0))
    c, d = _assembled_pair(derive_seed(5, 1))
    p, q = pair_from_projections(*random_pair_spec(derive_seed(5, 2)))
    calls = {
        "is_abs_compatible": lambda: is_abs_compatible(a, b),
        "canonicalize": lambda: canonicalize(a, b),
        "five_block_decompose": lambda: five_block_decompose(c, d),
        "support_projection": lambda: support_projection(c),
        "null_projection": lambda: null_projection(c),
        "decompose_pair_m2": lambda: decompose_pair_m2(p, q),
    }
    counts = dict.fromkeys(("eigh", "eigvalsh", "svd"), 0)

    def matrices(x) -> int:
        return math.prod(np.shape(x)[:-2])

    def counted(name, fn):
        def wrapper(x, *args, **kwargs):
            counts[name] += matrices(x)
            return fn(x, *args, **kwargs)
        return wrapper

    norm = np.linalg.norm

    def norm_counted(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) >= 2:  # the spectral norm of matrices is an svd
            counts["svd"] += matrices(x)
        return norm(x, ord, *args, **kwargs)

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "norm", norm_counted)

    for label, call in calls.items():
        counts.update(dict.fromkeys(counts, 0))
        call()
        over = {k: v for k, v in counts.items() if v > BUDGET[label][k]}
        assert not over, "%s made %r, over its budget %r" % (label, counts, BUDGET[label])


def test_spheroid_calls_do_not_grow_with_the_partners(monkeypatch):
    """The partners are validated, charted and checked as one stack, so
    2 and 8 partners take the same number of numpy.linalg calls."""
    pivot, target, index = random_pair_spec(derive_seed(5, 3))
    a, _ = pair_from_projections(pivot, target, index)
    partners = random_spheroid_partners(a, 8, derive_seed(5, 4))
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "det", "qr", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    made = []
    for k in (2, 8):
        calls.clear()
        spheroid_residual(a, partners[:k])
        made.append(sorted(calls))
    assert made[0] == made[1], made


def _reference(a, b, tol):
    """What is_abs_compatible and five_block_decompose validated before the
    certificate: both spectra, then the residual."""
    (a, _), (b, _) = _effects(a, b, tol)
    return a, b, _pair_spectra(a, b)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AbscompatError as exc:
        return type(exc), str(exc)


def _near_effect_pair(end):
    """A compatible pair whose a has one eigenvalue 2e-9 beyond 0 or 1: the
    residual is 4e-9, within tol.compat but not within tol.spec."""
    sa, sb = random_abscompat_pair(6, derive_seed(11, 1))
    x = -2e-9 if end == 0 else 1.0 + 2e-9
    return _direct_sum(sa, sb, [(x, 0.4), (0.5, 0.0)], derive_seed(11, 2))[:2]


def _parity_cases():
    low, high = _near_effect_pair(0), _near_effect_pair(1)
    skew = np.triu(np.full((8, 8), 1e-6), 1)
    valid = random_abscompat_pair(8, derive_seed(11, 3))
    tight = DEFAULT_TOL.override(spec=1e-16)
    return {
        "negative-spectrum": (*low, DEFAULT_TOL),
        "above-one": (*high, DEFAULT_TOL),
        "non-effect-and-non-hermitian": (low[0], high[1] + skew, DEFAULT_TOL),
        "non-effect-and-shape": (low[0], random_abscompat_pair(6, 5)[0], DEFAULT_TOL),
        "valid-tight-spec": (*valid, tight),
        "valid-certified": (*valid, DEFAULT_TOL),
    }


@pytest.mark.parametrize("case", sorted(_parity_cases()))
def test_certificate_parity(case, monkeypatch):
    """The certified path raises what validating both spectra raises, or
    returns the same report bit for bit; a valid pair is validated by its
    spectra only when its residual does not certify it."""
    a, b, tol = _parity_cases()[case]
    fallbacks = []

    def spy(*args):
        fallbacks.append(args)
        return _effects(*args)

    monkeypatch.setattr(compat, "_effects", spy)
    ref = _outcome(_reference, a, b, tol)
    report = _outcome(is_abs_compatible, a, b, tol)
    fb = _outcome(five_block_decompose, a, b, tol)
    if isinstance(ref[0], type):
        assert report == ref and fb == ref, (report, fb, ref)
        return
    assert bool(fallbacks) == (case == "valid-tight-spec")
    res = ref[2].residual
    assert report == CompatReport(res, res <= tol.compat, tol.compat)
    certified = five_block_decompose(a, b)
    for name in BLOCK_NAMES:
        assert np.array_equal(fb.bases[name], certified.bases[name])


def _slot_pair(n, seed):
    """A strict pair of size n/2 beside n/8 slots of each overlap, listed
    with the block each must land in, under a Haar conjugation."""
    overlaps = [("unit_a", (1.0, 1.0)), ("unit_b", (0.0, 1.0)),
                ("null_a", (0.0, 0.0)), ("null_b", (0.35, 0.0))]
    slots = overlaps * (n // 8)
    sa, sb = random_abscompat_pair(n // 2, derive_seed(seed, 1))
    a, b, u = _direct_sum(sa, sb, [s for _, s in slots], derive_seed(seed, 2))
    return a, b, u[:, n // 2:], [name for name, _ in slots]


@pytest.mark.parametrize("n", [8, 16])
def test_five_block_overlaps_take_the_first_eligible_block(n):
    a, b, vectors, names = _slot_pair(n, derive_seed(13, n))
    fb = five_block_decompose(a, b)
    want = {name: names.count(name) for name in BLOCK_NAMES}
    want["strict"] = n // 2
    assert fb.ranks() == want
    proj = fb.projections()
    for k, name in enumerate(names):
        v = vectors[:, k]
        assert np.linalg.norm(proj[name] @ v - v) <= 1e-10, (k, name)


def test_five_block_ranks_at_n96():
    for i in range(30):
        seed = derive_seed(17, i)
        gen = np.random.Generator(np.random.Philox(key=seed))
        sa, sb = random_abscompat_pair(64, derive_seed(seed, 1))
        slots = []
        for kind in range(4):  # unit_a, unit_b, null_a, null_b
            for v in 0.1 + 0.8 * gen.random(8):
                slots.append(((1.0, v), (v, 1.0), (0.0, v), (v, 0.0))[kind])
        a, b, _ = _direct_sum(sa, sb, slots, derive_seed(seed, 2))
        ranks = five_block_decompose(a, b).ranks()
        assert ranks == {"unit_a": 8, "unit_b": 8, "strict": 64, "null_a": 8, "null_b": 8}


@pytest.mark.parametrize("knob", ["proj", "block"])
def test_five_block_failures_report_exact_norms(knob):
    """Frobenius norms only settle passing checks: a failing orthonormality
    or off-block check reports the bound from exact operator norms."""
    a, b = _assembled_pair(derive_seed(5, 1))
    bases = five_block_decompose(a, b).bases
    v = np.hstack(list(bases.values()))
    eps = _hnorm(dagger(v) @ v - np.eye(len(v)))
    if knob == "proj":
        want = "five-block bases are not orthonormal, ||V*V - I|| = %.3e" % eps
    else:
        owner = np.repeat(np.arange(len(bases)), [w.shape[1] for w in bases.values()])
        m = hermitize(dagger(v) @ a @ v)
        off = _hnorm(np.where(owner[:, None] == owner[None, :], 0.0, m))
        bound = (1.0 + eps) * (off + 2.0 * eps * (1.0 + DEFAULT_TOL.spec))
        want = "blocks do not reduce a: off-block bound %.3e" % bound
    with pytest.raises(PostconditionFailure) as exc:
        five_block_decompose(a, b, DEFAULT_TOL.override(**{knob: 1e-30}))
    assert str(exc.value) == want
