"""The public boundary: inputs in any memory layout, and the number of
factorizations one call makes."""

import math
import sys

import numpy as np
import pytest

from abscompat import (
    DEFAULT_TOL,
    AbscompatError,
    DomainError,
    NegativeSpectrum,
    NotAbsolutelyCompatible,
    NotStrict,
    OddDimension,
    PairingFailure,
    PostconditionFailure,
    canonical,
    cli,
    compat,
    hermitian,
)
from abscompat.canonical import SiteBlockMatrix, _site_pairs, canonicalize
from abscompat.compat import (
    BLOCK_NAMES,
    CompatReport,
    _pair_spectra,
    five_block_decompose,
    is_abs_compatible,
    is_orthogonal,
    projection_compat_equiv,
)
from abscompat.generate import (
    _commuting_projection_effects,
    _strict_effects,
    derive_seed,
    haar_unitary,
    random_abscompat_pair,
    random_pair_spec,
    random_spheroid_partners,
)
from abscompat.geometry import decompose_pair_m2, pair_from_projections, spheroid_residual
from abscompat.hermitian import _ROUNDING, _effects, _hermitian_pair, dagger, hermitize
from abscompat.io import json_text, load_matrix, matrix_to_json, save_matrix
from conftest import _eig_norm, _sylvester_certificate, _two_call_residual


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


# an a-unit, b-unit, a-null and b-null slot
ASSEMBLED_SLOTS = [(1.0, 0.5), (0.3, 1.0), (0.0, 0.7), (0.6, 0.0)]


def _assembled_pair(seed):
    """A strict 4x4 pair beside one a-unit, b-unit, a-null and b-null slot."""
    sa, sb = random_abscompat_pair(4, derive_seed(seed, 1))
    return _direct_sum(sa, sb, ASSEMBLED_SLOTS, derive_seed(seed, 2))[:2]


def _n96_pairs():
    """30 strict 64x64 pairs, each beside eight slots of each overlap."""
    for i in range(30):
        seed = derive_seed(17, i)
        gen = np.random.Generator(np.random.Philox(key=seed))
        sa, sb = random_abscompat_pair(64, derive_seed(seed, 1))
        slots = []
        for kind in range(4):  # unit_a, unit_b, null_a, null_b
            for v in 0.1 + 0.8 * gen.random(8):
                slots.append(((1.0, v), (v, 1.0), (0.0, v), (v, 0.0))[kind])
        yield _direct_sum(sa, sb, slots, derive_seed(seed, 2))[:2]


# Matrices that numpy.linalg factorizes in one call at n = 8; a call on a
# (k, n, n) stack counts k, so stacking several matrices into one call
# cannot hide a factorization:
#  - is_abs_compatible: one eigh of 1-a-b, whose Sylvester bound
#    certifies the pair and is the residual reported, which also
#    certifies both operands as effects, so neither takes a validating
#    eigvalsh, and a-b takes no eigh;
#  - canonicalize: one eigh of 1-a-b, whose positive half gives x0 and
#    the site pairing (a pair whose eigenvalues there cluster takes one
#    more eigh per cluster, of a on the cluster; a random pair has none),
#    and one svd for the polar factor of the cross block; the
#    reconstruction residuals are settled by their Frobenius norms, and
#    the reconstruction certifies both operands as strict effects and the
#    pair as compatible, so neither is factorized again; the same count
#    for a stack of pairs, each call on the whole stack;
#  - five_block_decompose: one eigh of 1-a-b, whose Sylvester bound
#    certifies both operands and the pair and whose eigenvectors split the
#    space into the two sides of Q = 1(1-a-b < 0), and one eigh of the
#    projection P on each side; the whole pair's residual and the
#    off-block norms bound the strict block's residual, so it takes no
#    eigh of its own 1-a-b, a Cholesky gate settles its strictness, which
#    takes no spectrum, and the orthonormality, off-block and
#    block-content checks are settled by Frobenius norms; the same count
#    per pair for a stack, each call on the whole stack or on the pairs of
#    one pattern of side counts or of block ranks;
#  - decompose_pair_m2 (2x2): canonicalize at n = 2, so its count; the
#    spec is read off the form, and the round-trip norm is settled by a
#    Frobenius bound;
#  - pair_from_projections (2x2): the postcondition of compat._built_pair,
#    one eigvalsh each of a and b for strictness and one eigh of 1-a-b
#    for the Sylvester bound on the residual;
#  - projection_compat_equiv on a stack of three commuting pairs: one
#    eigvalsh per effect to validate it and one eigh of 1-p-a per pair
#    for the Sylvester bound; the commutator is settled by its Frobenius
#    norm.
BUDGET = {
    "is_abs_compatible": {"eigh": 1, "eigvalsh": 0, "svd": 0},
    "canonicalize": {"eigh": 1, "eigvalsh": 0, "svd": 1},
    "five_block_decompose": {"eigh": 3, "eigvalsh": 0, "svd": 0},
    "decompose_pair_m2": {"eigh": 1, "eigvalsh": 0, "svd": 1},
    "pair_from_projections": {"eigh": 1, "eigvalsh": 2, "svd": 0},
    "projection_compat_equiv": {"eigh": 3, "eigvalsh": 3, "svd": 0},
}


def test_factorization_budget(linalg_log):
    a, b = random_abscompat_pair(8, derive_seed(5, 0))
    c, d = _assembled_pair(derive_seed(5, 1))
    spec = random_pair_spec(derive_seed(5, 2))
    p, q = pair_from_projections(*spec)
    projections, effects = zip(*(_commuting_projection_effects(4, derive_seed(5, k), 0.1) for k in (3, 4, 5)))
    calls = {
        "is_abs_compatible": lambda: is_abs_compatible(a, b),
        "canonicalize": lambda: canonicalize(a, b),
        "five_block_decompose": lambda: five_block_decompose(c, d),
        "decompose_pair_m2": lambda: decompose_pair_m2(p, q),
        "pair_from_projections": lambda: pair_from_projections(*spec),
        "projection_compat_equiv": lambda: projection_compat_equiv(np.array(projections), np.array(effects)),
    }
    for label, call in calls.items():
        linalg_log.clear()
        call()
        # the spectral norm of matrices is an svd
        counts = {"eigh": linalg_log.matrices("eigh"), "eigvalsh": linalg_log.matrices("eigvalsh"),
                  "svd": linalg_log.matrices("svd", "norm2")}
        over = {k: v for k, v in counts.items() if v > BUDGET[label][k]}
        assert not over, "%s made %r, over its budget %r" % (label, counts, BUDGET[label])


def test_a_stack_with_one_open_pair_factorizes_each_matrix_once(monkeypatch, linalg_log):
    """A residual only compared with a bound takes one eigh of 1-a-b per
    pair, and the eigh of a-b only for the pair whose Sylvester bound is
    out of reach (a = b = 1 on a vector, so mu = 0), which reuses its
    eigh of 1-a-b; that pair's residual has the bits the two-eigh
    computation gives it alone."""
    slots = ([(1.0, 0.5), (0.0, 0.7)], [(1.0, 1.0), (0.0, 0.7)], [(0.3, 1.0), (0.6, 0.0)])
    pairs = [_direct_sum(*random_abscompat_pair(4, derive_seed(29, k)), s, derive_seed(30, k))[:2]
             for k, s in enumerate(slots)]
    a, b = (np.array(x) for x in zip(*pairs))
    with monkeypatch.context() as m:
        m.setattr(compat, "_ROUNDING", np.inf)
        alone = _pair_spectra(a[1], b[1], DEFAULT_TOL.compat)[0]
    linalg_log.clear()
    residual = _pair_spectra(a, b, DEFAULT_TOL.compat)[0]
    factorized = [x for call in linalg_log.of("eigh") for x in call.arg.reshape((-1,) + call.arg.shape[-2:])]
    assert len({x.tobytes() for x in factorized}) == len(factorized) == 4
    assert residual[1] == alone
    assert np.all(residual <= DEFAULT_TOL.compat)


def _conjugated_sites(u, site_pair):
    """u S u* for both site-block matrices S of site_pair."""
    return tuple(hermitize(u @ s.embed() @ dagger(u)) for s in site_pair)


def test_forms_keep_the_pairs_they_checked(monkeypatch):
    """canonicalize and exchanged_pivot_form each rebuild the pair once,
    to check it, and reconstruct() returns that pair: the bits of
    rebuilding it from the form's own fields."""
    rebuilt = []
    monkeypatch.setattr(canonical, "_conjugate_pair", _spy(rebuilt, canonical._conjugate_pair))
    for n in (2, 8):
        rebuilt.clear()
        cf = canonicalize(*random_abscompat_pair(n, derive_seed(13, n)))
        ex = canonical.exchanged_pivot_form(cf)
        pairs = cf.reconstruct(), ex.reconstruct()
        assert len(rebuilt) == 2
        for got, want in zip(pairs, (_conjugated_sites(cf.u0, cf.site_pair()),
                                     _conjugated_sites(ex.u, ex.site_pair()))):
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_five_block_projections_are_built_on_demand(monkeypatch, tmp_path):
    """five_block_decompose builds no projection; projections() and
    to_json build one per block from its basis, and the decompose
    --blocks file of a strict pair, where four blocks are 0x0, holds
    those bits."""
    spans = []
    monkeypatch.setattr(compat, "_span", _spy(spans, compat._span))
    a, b = _assembled_pair(derive_seed(13, 1))
    fb = five_block_decompose(a, b)
    assert not spans
    fb.to_json()
    assert len(spans) == len(BLOCK_NAMES)
    want = {name: hermitize(fb.bases[name] @ dagger(fb.bases[name])) for name in BLOCK_NAMES}
    assert {k: v.tobytes() for k, v in fb.projections().items()} == {k: v.tobytes() for k, v in want.items()}

    paths = [str(tmp_path / name) for name in ("a.json", "b.json", "blocks.json", "canon.json")]
    for path, x in zip(paths, random_abscompat_pair(6, derive_seed(13, 2))):
        save_matrix(path, x)
    assert cli.run(["decompose", *paths[:2], "--blocks", paths[2], "--out", paths[3]]) == 0
    fb = five_block_decompose(load_matrix(paths[0]), load_matrix(paths[1]))
    blocks = {side: {k: matrix_to_json(v) for k, v in x.items()}
              for side, x in (("a", fb.blocks_a), ("b", fb.blocks_b))}
    projections = {name: matrix_to_json(hermitize(v @ dagger(v))) for name, v in fb.bases.items()}
    with open(paths[2], encoding="utf-8") as fh:
        assert fh.read() == json_text({"projections": projections, "blocks": blocks})


def _validated_operands(monkeypatch) -> list:
    """The operands of every require_hermitian call from here on, patched
    in each module of the package that imports it."""
    seen, original = [], hermitian.require_hermitian

    def counted(x, *args, **kwargs):
        seen.append(x)
        return original(x, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("abscompat") and getattr(module, "require_hermitian", None) is original:
            monkeypatch.setattr(module, "require_hermitian", counted)
    return seen


def _validation_cases():
    """(entry point, a, b) on the accept path, the reject path and the
    path where the certificate falls back to validating the spectra."""
    accepted = random_abscompat_pair(8, derive_seed(5, 0))
    incompatible = tuple(_strict_effects(8, derive_seed(5, 5 + i), 0.1) for i in range(2))
    not_strict = _assembled_pair(derive_seed(5, 1))
    m2 = pair_from_projections(*random_pair_spec(derive_seed(5, 2)))
    m2_incompatible = tuple(_strict_effects(2, derive_seed(5, 7 + i), 0.1) for i in range(2))
    m2_not_strict = _direct_sum(np.zeros((0, 0)), np.zeros((0, 0)), [(1.0, 0.5), (0.0, 0.7)],
                                derive_seed(5, 9))[:2]
    m2_wrong_size = random_abscompat_pair(4, derive_seed(5, 3))
    cases = []
    for fn in (is_abs_compatible, five_block_decompose, canonicalize):
        cases += [(fn, *accepted), (fn, *incompatible), (fn, *not_strict)]
    cases += [(decompose_pair_m2, *pair) for pair in (m2, m2_incompatible, m2_not_strict, m2_wrong_size)]
    cases.append((is_abs_compatible, *(np.array([x, x]) for x in accepted)))
    return cases


def test_each_operand_is_validated_once(monkeypatch):
    """A public call makes each operand exactly Hermitian once, whether it
    accepts the pair, rejects it or falls back from the certificate; the
    private cores take what the boundary validated.  A stack that passes
    is validated whole, once."""
    seen = _validated_operands(monkeypatch)
    for fn, a, b in _validation_cases():
        seen.clear()
        try:
            fn(a, b)
        except AbscompatError:
            pass
        assert len(seen) == 2 and seen[0] is a and seen[1] is b, (fn.__name__, len(seen))


def test_spheroid_calls_do_not_grow_with_the_partners(linalg_log):
    """The partners are validated, charted and checked as one stack, so
    2 and 8 partners take the same number of numpy.linalg calls."""
    pivot, target, index = random_pair_spec(derive_seed(5, 3))
    a, _ = pair_from_projections(pivot, target, index)
    partners = random_spheroid_partners(a, 8, derive_seed(5, 4))
    made = []
    for k in (2, 8):
        linalg_log.clear()
        spheroid_residual(a, partners[:k])
        made.append(sorted(call.name for call in linalg_log))
    assert made[0] == made[1], made


def _reference(a, b, tol):
    """What is_abs_compatible and five_block_decompose validated before the
    certificate: both spectra, then the exact residual."""
    a, b = _hermitian_pair(a, b, tol)
    _effects(a, b, tol)
    return a, b, _two_call_residual(a, b)


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
    returns the verdict of the exact residual with the certificate's
    value as its residual, bit for bit: the Sylvester bound from the eigh
    of 1-a-b, which less the rounding allowance is never below the exact
    residual; a valid pair is validated
    by its spectra only when that bound does not certify it."""
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
    exact = ref[2]
    bound, certified = _sylvester_certificate(*ref[:2], tol)
    assert certified and bound - _ROUNDING * a.shape[-1] >= exact, (bound, exact)
    assert report == CompatReport(bound, exact <= tol.compat, tol.compat)
    certified = five_block_decompose(a, b)
    for name in BLOCK_NAMES:
        assert np.array_equal(fb.bases[name], certified.bases[name])


def _site_pair(x0, a0, seed):
    """The pair of per-site (x0, a0), w = 1, under a Haar conjugation."""
    x0, a0 = np.asarray(x0, dtype=float), np.asarray(a0, dtype=float)
    sa, sb = (SiteBlockMatrix(s).embed() for s in _site_pairs(x0, a0, np.ones(len(x0), dtype=complex)))
    u = haar_unitary(len(sa), seed)
    return hermitize(u @ sa @ dagger(u)), hermitize(u @ sb @ dagger(u))


def _a0_at(x0, lam, side):
    """The a0 that puts the smaller eigenvalue of side a or b of a site of
    index x0 at lam: lam (1 - lam) = x0 a0^2 (1 - x0) for a and
    x0 (1 - a0^2)(1 - x0) for b."""
    sq = lam * (1.0 - lam) / (x0 * (1.0 - x0))
    return math.sqrt(sq if side == "a" else 1.0 - sq)


def _near_cut(n, offset, side="a", seed=0):
    """A strict-by-construction pair of size n whose side has a smallest
    eigenvalue tol.spec + offset * _ROUNDING * n, past the cut for a
    negative offset."""
    lam = DEFAULT_TOL.spec + offset * _ROUNDING * n
    x0 = [0.5] + list(np.linspace(0.2, 0.8, n // 2 - 1))
    a0 = [_a0_at(0.5, lam, side)] + [0.6] * (n // 2 - 1)
    return _site_pair(x0, a0, derive_seed(23, seed))


def _near_cut_assembled(n, offset, side, seed):
    """_near_cut beside two slots.  The slots are where the other effect is
    0 or 1: a slot where side is 0 or 1 would sit within about tol.spec
    of its eigenvalue near the cut, and so split from it only to about
    u / tol.spec."""
    slots = [(0.3, 1.0), (0.6, 0.0)] if side == "a" else [(1.0, 0.5), (0.0, 0.7)]
    return _direct_sum(*_near_cut(n, offset, side, seed), slots, derive_seed(23, seed))[:2]


def _spy(log, fn):
    def spy(*args, **kwargs):
        log.append(fn.__name__)
        return fn(*args, **kwargs)
    return spy


def _uncertified(monkeypatch, fn, *args):
    """fn(*args) with every certificate inconclusive, so each check is
    computed as it was before the certificates: no finite residual clears
    an infinite rounding allowance."""
    with monkeypatch.context() as m:
        m.setattr(compat, "_ROUNDING", np.inf)
        m.setattr(canonical, "_ROUNDING", np.inf)
        return _outcome(fn, *args)


def _canonical_bits(a, b, tol):
    cf = canonicalize(a, b, tol)
    return tuple(np.asarray(x).tobytes() for x in (cf.u0, cf.x0, cf.a0, cf.w, cf.residual))


def _canonical_bound_case(side):
    """A valid pair with a tol.compat at the least value at which the
    Sylvester bound from the eigh of 1-a-b that canonicalize takes, of
    the pair in its canonical order, certifies it
    (compat._sylvester_bounds), or one ulp below."""
    a, b = (hermitize(x) for x in random_abscompat_pair(8, derive_seed(11, 3)))
    ordered = compat._canonical_order(a, b)
    zvals, zvecs = np.linalg.eigh(hermitian.identity_like(a) - ordered[0] - ordered[1])

    def certifies(bound):
        return bool(compat._sylvester_bounds(*ordered, zvals, zvecs, bound)[1])

    bound = float(compat._sylvester_bounds(*ordered, zvals, zvecs, np.inf)[0])
    while not certifies(bound):
        bound = np.nextafter(bound, np.inf)
    while certifies(np.nextafter(bound, 0.0)):
        bound = np.nextafter(bound, 0.0)
    return a, b, DEFAULT_TOL.override(compat=bound if side == "over" else np.nextafter(bound, 0.0))


def _unequal_halves(low=0.2, n=6):
    """(a, a) for an a whose 1 - 2a has one negative eigenvalue: not
    compatible, and its recovery fails on the halves of 1-a-b.  a is
    strict unless low is 0."""
    a = _conjugated(np.diag([low, 0.3, 0.35, 0.4, 0.45, 0.7][:n]), derive_seed(11, 6))
    return a, a


def _conjugated(d, seed):
    """The diagonal d under a Haar conjugation."""
    u = haar_unitary(len(d), seed)
    return hermitize(u @ d @ dagger(u))


def _canonical_cases():
    valid = random_abscompat_pair(8, derive_seed(11, 3))
    sa, sb = random_abscompat_pair(4, derive_seed(11, 4))
    unpaired = _direct_sum(sa, sb, [(1.0, 0.0), (0.0, 0.0)], derive_seed(11, 5))[:2]
    odd = (_conjugated(np.diag([-0.1, 0.2, 0.3, 0.4, 0.5]), derive_seed(11, 7)),
           _conjugated(np.diag([0.5, 0.4, 0.3, 0.2, 0.1]), derive_seed(11, 8)))
    return {
        # path: "certified" when the residual and the recovered form
        # settle the pair, "validated" when its fallback validates both
        # spectra, "deferred" when the residual certifies the effects and
        # one eigvalsh settles strictness; below the Sylvester bound's
        # reach the exact residual is within tol.compat, so the pair is
        # still certified
        "certified": (*valid, DEFAULT_TOL, "certified"),
        "tight-spec": (*valid, DEFAULT_TOL.override(spec=1e-16), "certified"),
        "compatible-not-strict": (*_assembled_pair(derive_seed(5, 1)), DEFAULT_TOL, "deferred"),
        "not-strict-and-unpaired": (*unpaired, DEFAULT_TOL, "deferred"),
        "within-allowance-of-cut": (*_near_cut(4, 0.5), DEFAULT_TOL, "deferred"),
        "below-cut-b": (*_near_cut(4, -0.5, "b"), DEFAULT_TOL, "deferred"),
        "compat-at-the-bound": (*_canonical_bound_case("over"), "certified"),
        "compat-below-the-bound": (*_canonical_bound_case("under"), "certified"),
        "incompatible-unequal-halves": (*_unequal_halves(), DEFAULT_TOL, "validated"),
        "incompatible-not-strict": (*_unequal_halves(0.0), DEFAULT_TOL, "validated"),
        "incompatible-odd": (*_unequal_halves(n=5), DEFAULT_TOL, "validated"),
        "odd-non-effect": (*odd, DEFAULT_TOL, "validated"),
        "clustered-x0": (*_site_pair([0.3, 0.6, 0.3], [0.4, 0.7, 0.5], derive_seed(11, 9)),
                         DEFAULT_TOL, "certified"),
    }


# the error each failing case raises: the checks come in the order
# effects, even size, strictness, compatibility, and all of them ahead of
# the recovery's own errors
CANONICAL_RAISES = {
    "compatible-not-strict": NotStrict,
    "not-strict-and-unpaired": NotStrict,
    "below-cut-b": NotStrict,
    "incompatible-unequal-halves": NotAbsolutelyCompatible,
    "incompatible-not-strict": NotStrict,
    "incompatible-odd": OddDimension,
    "odd-non-effect": NegativeSpectrum,
}


@pytest.mark.parametrize("case", sorted(_canonical_cases()))
def test_canonical_certificate_parity(case, monkeypatch, linalg_log):
    """canonicalize raises what checking both spectra first raises, or
    returns the same form bit for bit, whichever path settles strictness
    and compatibility; every path factorizes 1-a-b exactly once,
    counting 1-a-b and 1-b-a alike."""
    a, b, tol, path = _canonical_cases()[case]
    ref = _uncertified(monkeypatch, _canonical_bits, a, b, tol)
    ran = []
    monkeypatch.setattr(compat, "_effects", _spy(ran, compat._effects))
    linalg_log.clear()
    got = _outcome(_canonical_bits, a, b, tol)
    assert got == ref
    # a residual that certifies the effects leaves strictness to one eigvalsh of the pair [a, b]
    strictness = any(call.arg.tobytes() == np.stack([a, b]).tobytes() for call in linalg_log.of("eigvalsh"))
    took = "validated" if ran else "deferred" if strictness else "certified"
    assert took == path, ran
    one = np.eye(a.shape[-1])
    sums = [(one - x - y).tobytes() for x, y in ((a, b), (b, a))]
    assert sum(call.arg.tobytes() in sums for call in linalg_log.of("eigh")) == 1
    raised = got[0] if isinstance(got[0], type) else None
    assert raised is CANONICAL_RAISES.get(case), got
    if case == "incompatible-unequal-halves":
        # the recovery's own error, once a tol.compat that passes the pair lets it through
        with pytest.raises(PairingFailure, match="unequal rank"):
            canonicalize(a, b, tol.override(compat=10.0))
    if case == "clustered-x0":
        np.testing.assert_allclose(canonicalize(a, b).x0, [0.3, 0.3, 0.6], rtol=0.0, atol=1e-12)


def _five_block_bits(a, b, tol):
    fb = five_block_decompose(a, b, tol)
    return tuple(x[name].tobytes() for x in (fb.bases, fb.blocks_a, fb.blocks_b) for name in BLOCK_NAMES)


def _strict_residuals(a, b, fb):
    """The residuals of the whole pair and of the strict block of its
    decomposition fb."""
    return _two_call_residual(a, b), _two_call_residual(fb.blocks_a["strict"], fb.blocks_b["strict"])


def _strict_block_failure():
    """A pair whose strict block has a larger residual than the whole pair,
    with a tol.compat between the two."""
    for k in range(20):
        a, b = _assembled_pair(derive_seed(19, k))
        whole, strict = _strict_residuals(a, b, five_block_decompose(a, b))
        if strict > 1.5 * whole:
            return a, b, DEFAULT_TOL.override(compat=0.5 * (whole + strict))
    raise AssertionError("no seed gives a strict block residual above the whole pair's")


def _five_block_cases():
    assembled = _assembled_pair(derive_seed(5, 1))
    return {
        # path: "computed" when the strict block's spectra are factorized,
        # "certified" when the Cholesky gate settles its strictness
        "certified": (*assembled, DEFAULT_TOL, "certified"),
        "within-allowance-of-cut-a": (*_near_cut_assembled(4, 0.5, "a", 1), DEFAULT_TOL, "computed"),
        "within-allowance-of-cut-b": (*_near_cut_assembled(4, 0.5, "b", 2), DEFAULT_TOL, "computed"),
        "clear-of-cut-a": (*_near_cut_assembled(4, 2.0, "a", 3), DEFAULT_TOL, "certified"),
        "compat-below-the-allowance": (*assembled, DEFAULT_TOL.override(compat=1e-12), "certified"),
        "strict-block-fails": (*_strict_block_failure(), "certified"),
    }


@pytest.mark.parametrize("case", sorted(_five_block_cases()))
def test_five_block_certificate_parity(case, monkeypatch):
    """five_block_decompose raises what checking every pair and block by
    its own factorizations raises, or returns the same blocks bit for
    bit; the strict block takes the eigvalsh of its spectra only when the
    Cholesky gate leaves it open."""
    a, b, tol, path = _five_block_cases()[case]
    ref = _uncertified(monkeypatch, _five_block_bits, a, b, tol)
    gate, verdicts = compat._certified_strict, []
    monkeypatch.setattr(compat, "_certified_strict", lambda *args: verdicts.append(gate(*args)) or verdicts[-1])
    got = _outcome(_five_block_bits, a, b, tol)
    assert got == ref
    assert verdicts and ("certified" if all(verdicts) else "computed") == path
    if case == "strict-block-fails":
        assert got[0] is PostconditionFailure and got[1].startswith("strict block not absolutely compatible")


def _perturbed(a, b, scale, seed):
    """a and b each moved by a Hermitian matrix of norm scale."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for x in (a, b):
        e = hermitize(gen.normal(size=x.shape) + 1j * gen.normal(size=x.shape))
        out.append(x + scale / _eig_norm(e) * e)
    return out


def test_five_block_residual_is_the_whole_pair_certificate():
    """The residual five-block's certificate takes is is_abs_compatible's,
    bit for bit, from the eigh of 1-a-b that the blocks come from too:
    less its rounding allowance it is at least the residual of the whole
    pair from its two eigh, on exact, near-cut and perturbed pairs, and
    it certifies both operands of every pair that is not moved by 1e-10."""
    pairs = list(_n96_pairs())
    pairs += [_near_cut_assembled(n, k, side, n) for n in (4, 8) for k in (0.5, 2.0) for side in "ab"]
    settled = len(pairs)
    pairs += [_perturbed(a, b, scale, k) for k, (a, b) in enumerate(pairs[:3]) for scale in (1e-11, 1e-10)]
    for i, (a, b) in enumerate(pairs):
        n = a.shape[-1]
        bound = compat._five_blocks(*_hermitian_pair(a, b, DEFAULT_TOL), DEFAULT_TOL)[0]
        whole = _two_call_residual(a, b)
        assert bound == is_abs_compatible(a, b).residual
        assert np.isfinite(bound) and bound - _ROUNDING * n >= whole, (n, whole, bound)
        if i < settled:
            assert bound + _ROUNDING * n <= DEFAULT_TOL.spec, (n, whole, bound)


def _ones_minus(a, b):
    """The bytes of 1-a-b as a pair in either operand order computes it."""
    one = np.eye(a.shape[-1])
    return {(one - a - b).tobytes(), (one - b - a).tobytes()}


def test_five_block_factorizes_one_matrix_at_full_size(linalg_log):
    """On a 64x64 strict pair beside eight slots of each overlap, as the
    benchmark's assembled pairs are, the only n x n factorization of
    five_block_decompose is the eigh of 1-a-b: it certifies the pair and
    splits the space into the two sides of Q, each 48 wide, where P takes
    one eigh each, and the whole pair's residual bounds the strict
    block's.  A strict pair has no outer blocks, so its sides are its two
    halves."""
    a, b = next(_n96_pairs())
    strict = random_abscompat_pair(64, derive_seed(17, 99))
    linalg_log.clear()
    five_block_decompose(a, b)
    log = linalg_log.of("eigh", "eigvalsh", "svd")
    full = [(call.name, call.arg.shape) for call in log if call.arg.shape[-1] == 96]
    assert full == [("eigh", (96, 96))] and log[0].arg.tobytes() in _ones_minus(a, b)
    assert [(call.name, call.arg.shape) for call in log] == [("eigh", (96, 96)), ("eigh", (48, 48)), ("eigh", (48, 48))]
    # the strict block's strictness: one Cholesky of its four shifted compressions
    assert [call.arg.shape for call in linalg_log.of("cholesky")] == [(4, 64, 64)]
    linalg_log.clear()
    five_block_decompose(*strict)
    log = linalg_log.of("eigh", "eigvalsh", "svd")
    assert [(call.name, call.arg.shape) for call in log] == [("eigh", (64, 64)), ("eigh", (32, 32)), ("eigh", (32, 32))]
    assert log[0].arg.tobytes() in _ones_minus(*strict)


def test_a_strict_block_left_open_is_factorized_once(linalg_log):
    """A strict block whose strictness the Cholesky gate leaves open (an
    eigenvalue of a within the rounding allowance of the cut), but whose
    compatibility the whole pair's residual and the off-block norms
    settle, takes one eigvalsh for its strictness and no eigh of its own
    1-a-b, and the whole pair no second eigh of 1-a-b."""
    a, b = _near_cut_assembled(4, 0.5, "a", 1)
    linalg_log.clear()
    five_block_decompose(a, b)
    assert [(call.name, call.arg.shape) for call in linalg_log.of("eigh", "eigvalsh", "svd")] == [
        ("eigh", (6, 6)), ("eigh", (3, 3)), ("eigh", (3, 3)), ("eigvalsh", (2, 4, 4))]


def _factorization_inputs():
    """Pairs of n >= 1 with empty sides and empty blocks: a strict pair,
    which has no outer block, an assembled pair and a slot pair."""
    strict = [random_abscompat_pair(n, derive_seed(67, n)) for n in (8, 64)]
    return strict + [_assembled_pair(derive_seed(67, 1)), _slot_pair(8, derive_seed(67, 2))[:2]]


def test_five_block_factorizes_no_empty_matrix(linalg_log):
    """five_block_decompose hands numpy.linalg no matrix with a zero
    dimension: an empty side of Q and an empty block take no
    factorization."""
    for a, b in _factorization_inputs():
        linalg_log.clear()
        five_block_decompose(a, b)
        empty = [(call.name, call.arg.shape) for call in linalg_log if 0 in call.arg.shape[-2:]]
        assert linalg_log and not empty, empty


def test_incompatible_strict_block_raises_the_whole_pair_message():
    """A pair whose strict block is moved off compatibility raises what
    the whole pair's certificate raises: NotAbsolutelyCompatible with that certificate's
    residual, alone and as the second pair of a stack."""
    a, b = _direct_sum(*_perturbed(*random_abscompat_pair(4, derive_seed(61, 0)), 3e-8, 62),
                       ASSEMBLED_SLOTS, derive_seed(61, 1))[:2]
    residual = _pair_spectra(a, b, DEFAULT_TOL.compat)[0]
    assert residual == is_abs_compatible(a, b).residual > DEFAULT_TOL.compat
    want = "residual %.3e > %.3e" % (residual, DEFAULT_TOL.compat)
    with pytest.raises(NotAbsolutelyCompatible) as exc:
        five_block_decompose(a, b)
    assert str(exc.value) == want
    c, d = _assembled_pair(derive_seed(61, 2))
    with pytest.raises(NotAbsolutelyCompatible) as exc:
        compat._five_blocks(np.array([c, a, c]), np.array([d, b, d]), DEFAULT_TOL)
    assert str(exc.value) == want


@pytest.mark.parametrize("offset", [0.5, 2.0, 1e3, 1e4])
def test_near_cut_beside_every_slot_is_verified_or_raises(offset):
    """A strict eigenvalue of a just above tol.spec beside an a = 0 slot
    splits from the kernel only to about u / tol.spec, so the blocks may
    not reduce the pair; five_block_decompose then raises, and whatever
    it returns rebuilds the pair within tol.block.  Near the cut every
    seed raises; at 1e3 allowances from it some seeds return, and at 1e4
    all do."""
    for seed in range(4):
        a, b, _ = _direct_sum(*_near_cut(4, offset, "a", seed), ASSEMBLED_SLOTS, derive_seed(29, seed))
        try:
            fb = five_block_decompose(a, b)
        except AbscompatError:
            continue
        for x, blocks in ((a, fb.blocks_a), (b, fb.blocks_b)):
            rebuilt = sum(v @ blocks[name] @ dagger(v) for name, v in fb.bases.items())
            assert _eig_norm(rebuilt - x) <= DEFAULT_TOL.block, (offset, seed)


@pytest.mark.parametrize("seed", range(4))
def test_near_cut_beside_a_null_slot_decomposes(seed):
    """A valid pair: a strict eigenvalue of a half a rounding allowance
    above tol.spec, beside an a = 0 slot and a b = 1 slot.  An eigh of a
    splits that eigenvalue from the kernel only to about u / tol.spec, and
    its blocks did not reduce b (off-block bounds of 1.03e-08 to
    2.14e-08).  1-a-b separates the slots from the strict sites by 0.2,
    so the blocks come out with the slots' ranks, and the strict block's
    spectra stay above tol.spec."""
    a, b, _ = _direct_sum(*_near_cut(4, 0.5, "a", seed), [(0.0, 0.7), (0.3, 1.0)], derive_seed(23, seed))
    assert is_abs_compatible(a, b)
    fb = five_block_decompose(a, b)
    assert fb.ranks() == {"unit_a": 0, "unit_b": 1, "strict": 4, "null_a": 1, "null_b": 0}
    for x, blocks in ((a, fb.blocks_a), (b, fb.blocks_b)):
        rebuilt = sum(v @ blocks[name] @ dagger(v) for name, v in fb.bases.items())
        assert _eig_norm(rebuilt - x) <= DEFAULT_TOL.block
    spectra = np.linalg.eigvalsh(np.stack([fb.blocks_a["strict"], fb.blocks_b["strict"]]))
    assert np.all(spectra > DEFAULT_TOL.spec) and np.all(spectra < 1.0 - DEFAULT_TOL.spec)


@pytest.mark.xfail(strict=True, raises=PostconditionFailure,
                   reason="the recovered form misses tol.canon on a compatible pair within 3e-9 of "
                          "an exactly compatible one")
def test_moved_n96_pair_canonicalizes():
    """A valid strict pair at n = 96, 3e-9 from an exactly compatible one,
    so a form within tol.canon exists; canonicalize raises "reconstruction
    residual 1.277e-07 > 1.000e-07" today."""
    a, b = random_abscompat_pair(96, 8)
    g = np.random.default_rng(8)
    h = hermitize(g.normal(size=(96, 96)) + 1j * g.normal(size=(96, 96)))
    a = a + 3e-9 * h / np.linalg.norm(h)
    assert is_abs_compatible(a, b)
    canonicalize(a, b)


OVERLAPS = [("unit_a", (1.0, 1.0)), ("unit_b", (0.0, 1.0)), ("null_a", (0.0, 0.0)), ("null_b", (0.35, 0.0))]


def _slot_pair(n, seed, slots=None):
    """A strict pair of size n/2 beside slots (block, (a-value, b-value)),
    listed with the block each must land in, under a Haar conjugation: by
    default n/8 slots of each of OVERLAPS."""
    slots = slots or OVERLAPS * (n // 8)
    sa, sb = random_abscompat_pair(n // 2, derive_seed(seed, 1))
    a, b, u = _direct_sum(sa, sb, [s for _, s in slots], derive_seed(seed, 2))
    return a, b, u[:, n // 2:], [name for name, _ in slots]


# unequal outer ranks: 3 unit_a slots, one of them also where b = 0, 1
# unit_b, 0 null_a and 2 null_b slots, plus a (1, 1) and a (0, 0) slot
UNEQUAL = [("unit_a", (1.0, 0.4)), ("unit_a", (1.0, 0.0)), ("unit_a", (1.0, 0.8)), ("unit_b", (0.6, 1.0)),
           ("null_b", (0.35, 0.0)), ("null_b", (0.7, 0.0)), ("unit_a", (1.0, 1.0)), ("null_a", (0.0, 0.0))]


# both operands within tol.spec of 1 or of 0, with |1-a-b| short of 1 by
# 1.2 tol.spec, so only the order of the tests puts them in unit_a and
# null_a; the pair's residual, 1.2 tol.spec, is within tol.compat
NEAR = 0.6 * DEFAULT_TOL.spec
NEAR_OVERLAPS = OVERLAPS + [("unit_a", (1.0 - NEAR, 1.0 - NEAR)), ("null_a", (NEAR, NEAR)),
                            ("unit_b", (0.0, 1.0)), ("null_b", (0.7, 0.0))]


@pytest.mark.parametrize("n, slots, within", [pytest.param(8, None, 1e-10, id="8"),
                                              pytest.param(16, None, 1e-10, id="16"),
                                              pytest.param(16, UNEQUAL, 1e-10, id="16-unequal"),
                                              pytest.param(16, NEAR_OVERLAPS, DEFAULT_TOL.block, id="16-near")])
def test_five_block_overlaps_take_the_first_eligible_block(n, slots, within):
    """Each slot lands in the first eligible block of unit_a, unit_b,
    null_a, null_b, so Halmos' four intersections map to the four outer
    blocks one to one, whatever their ranks.  P = (1-|1-a-b|)^-1 (a - c-)
    resolves a near slot, where 1 - |1-a-b| is 1.2 tol.spec, only to
    about u / tol.spec, so the near case checks its vectors to tol.block."""
    a, b, vectors, names = _slot_pair(n, derive_seed(13, n), slots)
    fb = five_block_decompose(a, b)
    want = {name: names.count(name) for name in BLOCK_NAMES}
    want["strict"] = n // 2
    assert fb.ranks() == want
    proj = fb.projections()
    for k, name in enumerate(names):
        v = vectors[:, k]
        assert np.linalg.norm(proj[name] @ v - v) <= within, (k, name)


def test_five_block_ranks_at_n96():
    for a, b in _n96_pairs():
        ranks = five_block_decompose(a, b).ranks()
        assert ranks == {"unit_a": 8, "unit_b": 8, "strict": 64, "null_a": 8, "null_b": 8}


@pytest.mark.parametrize("knob", ["proj", "block"])
def test_five_block_failures_report_exact_norms(knob):
    """Frobenius norms only settle passing checks: a failing orthonormality
    or off-block check reports the bound from exact operator norms."""
    a, b = _assembled_pair(derive_seed(5, 1))
    bases = five_block_decompose(a, b).bases
    v = np.hstack(list(bases.values()))
    eps = _eig_norm(dagger(v) @ v - np.eye(len(v)))
    if knob == "proj":
        want = "five-block bases are not orthonormal, ||V*V - I|| = %.3e" % eps
    else:
        owner = np.repeat(np.arange(len(bases)), [w.shape[1] for w in bases.values()])
        m = hermitize(dagger(v) @ a @ v)
        off = _eig_norm(np.where(owner[:, None] == owner[None, :], 0.0, m))
        bound = (1.0 + eps) * (off + 2.0 * eps * (1.0 + DEFAULT_TOL.spec))
        want = "blocks do not reduce a: off-block bound %.3e" % bound
    with pytest.raises(PostconditionFailure) as exc:
        five_block_decompose(a, b, DEFAULT_TOL.override(**{knob: 1e-30}))
    assert str(exc.value) == want
