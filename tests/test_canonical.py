"""Canonical form, site-block algebra, strict parametrizations, dilation."""

import contextlib
import re

import numpy as np
import pytest

from abscompat import DEFAULT_TOL
from abscompat.canonical import (
    PIVOT_0,
    SiteBlockMatrix,
    StrictProjectionParams,
    StrictUnitaryParams,
    canonicalize,
    conjugate_to_pivot,
    dilate_commuting_pair,
    exchanged_pivot_form,
    is_strict_projection,
    is_strict_unitary,
    pair_from_params,
    params_from_strict_projection,
    params_from_strict_unitary,
    projection_pair_from_unitary,
    strict_projection_from_params,
    strict_unitary_from_params,
)
from abscompat.compat import is_abs_compatible
from abscompat.errors import (
    DomainError,
    NotAbsolutelyCompatible,
    NotCommuting,
    NotStrict,
    NotStrictParams,
    NotStrictProjection,
    NotStrictUnitary,
    OddDimension,
    PostconditionFailure,
    SumExceedsOne,
)
from abscompat.generate import (
    derive_seed,
    random_commuting_strict_pair,
    random_pair_params,
    random_strict_projection_params,
    random_strict_unitary_params,
)
from abscompat.hermitian import (
    absolute_value, dagger, hermitize, is_strict, jordan_product, null_projection, op_norm,
    support_projection,
)

RT2 = 1.0 / np.sqrt(2.0)
FIX_A = np.array([[0.25, 0.25], [0.25, 0.75]], dtype=complex)
FIX_B = np.array([[0.25, -0.25], [-0.25, 0.75]], dtype=complex)


def test_embed_extract_round_trip():
    one = SiteBlockMatrix(np.eye(2, dtype=complex)[None])
    assert np.allclose(one.embed(), np.eye(2))

    two = SiteBlockMatrix(np.broadcast_to(PIVOT_0, (2, 2, 2)).copy())
    assert np.allclose(two.embed(), np.diag([0.0, 1.0, 0.0, 1.0]))

    gen = np.random.Generator(np.random.Philox(key=14))
    blocks = gen.standard_normal((3, 2, 2)) + 1j * gen.standard_normal((3, 2, 2))
    sb = SiteBlockMatrix(blocks)
    back = SiteBlockMatrix.extract(sb.embed())
    assert np.allclose(back.blocks, blocks)


def test_embed_extract_match_the_site_loop():
    """The (m, 2, m, 2) views give the bits of one loop over the sites."""
    gen = np.random.Generator(np.random.Philox(key=15))
    for m in (1, 2, 5):
        blocks = gen.standard_normal((m, 2, 2)) + 1j * gen.standard_normal((m, 2, 2))
        full = np.zeros((2 * m, 2 * m), dtype=complex)
        mask = np.ones((2 * m, 2 * m), dtype=bool)
        for k in range(m):
            full[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = blocks[k]
            mask[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = False
        assert SiteBlockMatrix(blocks).embed().tobytes() == full.tobytes()
        assert SiteBlockMatrix.extract(full).blocks.tobytes() == blocks.tobytes()
        if m > 1:
            noisy = full + np.where(mask, gen.standard_normal(full.shape), 0.0)
            stray = float(np.max(np.abs(noisy[mask])))
            with pytest.raises(DomainError, match=re.escape("off-site mass %.3e exceeds" % stray)):
                SiteBlockMatrix.extract(noisy)


def test_extract_rejects_off_site_mass():
    x = np.zeros((4, 4), dtype=complex)
    x[0, 3] = 0.5
    with pytest.raises(DomainError):
        SiteBlockMatrix.extract(x)
    with pytest.raises(OddDimension):
        SiteBlockMatrix.extract(np.zeros((3, 3), dtype=complex))


def test_strict_unitary_fixture():
    q = StrictUnitaryParams(a0=[RT2], w1=[1.0], w2=[1.0], w3=[1.0])
    u = strict_unitary_from_params(q)
    assert np.allclose(u.embed(), RT2 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert is_strict_unitary(u)


def test_strict_params_boundaries():
    with pytest.raises(NotStrictParams):
        StrictUnitaryParams(a0=[0.0], w1=[1.0], w2=[1.0], w3=[1.0])
    with pytest.raises(NotStrictParams):
        StrictProjectionParams(a0=[1.0], w=[1.0])
    with pytest.raises(NotStrictParams):
        StrictProjectionParams(a0=[0.5], w=[2.0])  # not unimodular


def test_is_strict_unitary_fixtures():
    assert not is_strict_unitary(np.eye(2, dtype=complex))
    assert is_strict_unitary(RT2 * np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex))
    assert not is_strict_unitary(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def test_strict_projection_fixture():
    p = strict_projection_from_params(StrictProjectionParams(a0=[RT2], w=[1.0]))
    assert np.allclose(p.embed(), 0.5 * np.ones((2, 2)))

    pi = strict_projection_from_params(StrictProjectionParams(a0=[RT2], w=[1j]))
    want = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    assert np.allclose(pi.embed(), want)
    assert op_norm(pi.embed() @ pi.embed() - pi.embed()) <= 1e-12


def test_is_strict_projection_fixtures():
    assert not is_strict_projection(PIVOT_0)
    assert is_strict_projection(0.5 * np.ones((2, 2), dtype=complex))
    assert is_strict_projection(np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex))


def test_projection_pair_from_unitary():
    u = strict_unitary_from_params(StrictUnitaryParams([RT2], [1.0], [1.0], [1.0]))
    p, pc = projection_pair_from_unitary(u)
    assert np.allclose(p.embed(), 0.5 * np.ones((2, 2)))
    assert np.allclose(pc.embed(), np.array([[0.5, -0.5], [-0.5, 0.5]]))
    assert op_norm(p.embed() + pc.embed() - np.eye(2)) <= 1e-12

    for i in range(10):
        q = random_strict_unitary_params(3, derive_seed(15, i))
        p, pc = projection_pair_from_unitary(strict_unitary_from_params(q))
        assert is_strict_projection(p)
        trace = np.real(p.entry(0, 0) + p.entry(1, 1))
        assert np.max(np.abs(trace - 1.0)) <= 1e-12
        assert op_norm(p.embed() + pc.embed() - np.eye(6)) <= 1e-12

    with pytest.raises(NotStrictUnitary):
        projection_pair_from_unitary(np.eye(2, dtype=complex))


def test_conjugate_to_pivot():
    u = conjugate_to_pivot(0.5 * np.ones((2, 2), dtype=complex))
    assert np.allclose(u.embed(), RT2 * np.array([[1.0, -1.0], [1.0, 1.0]]))

    p = strict_projection_from_params(StrictProjectionParams(a0=[0.6], w=[1j]))
    u = conjugate_to_pivot(p)
    assert is_strict_unitary(u)
    conj = dagger(u.embed()) @ np.diag([0.0, 1.0]) @ u.embed()
    assert op_norm(conj - p.embed()) <= DEFAULT_TOL.proj

    with pytest.raises(NotStrictProjection):
        conjugate_to_pivot(PIVOT_0)


def test_params_round_trips():
    for i in range(10):
        q = random_strict_unitary_params(2, derive_seed(25, i))
        u = strict_unitary_from_params(q)
        back = params_from_strict_unitary(u)
        assert np.allclose(back.a0, q.a0)
        assert np.allclose(back.w1, q.w1)
        assert np.allclose(back.w2, q.w2)
        assert np.allclose(back.w3, q.w3)

        pq = random_strict_projection_params(2, derive_seed(26, i))
        back = params_from_strict_projection(strict_projection_from_params(pq))
        assert np.allclose(back.a0, pq.a0)
        assert np.allclose(back.w, pq.w)


def _moved_off_diagonal(a0, by):
    """The strict projection of StrictProjectionParams([a0], [1]) with both
    off-diagonal entries moved by `by`."""
    p = strict_projection_from_params(StrictProjectionParams([a0], [1.0])).embed()
    return p + by * np.array([[0.0, 1.0], [1.0, 0.0]])


def test_both_inverse_maps_read_one_strict_projection():
    """params_from_strict_projection and conjugate_to_pivot read the same
    (a0, w), w normalized to modulus one, and check what it rebuilds at
    tol.proj.  At a0 = 1e-3 an off-diagonal moved by 2e-11 moves the raw
    |w| by 2e-8, but the rebuilt projection only by 2e-11, so both maps
    succeed and agree; at a0 = 1e-4 one moved by 2e-7 is still a strict
    projection at tol.proj, but its rebuild is 2e-7 off, so both raise."""
    p = _moved_off_diagonal(1e-3, 2e-11)
    params = params_from_strict_projection(p)
    u = conjugate_to_pivot(p).embed()
    assert params.a0.tobytes() == np.sqrt(p[:1, 0].real).tobytes()
    assert np.abs(params.w - 1.0).max() <= 1e-15
    rebuilt = strict_projection_from_params(params).embed()
    assert op_norm(dagger(u) @ PIVOT_0 @ u - rebuilt) <= 1e-15
    assert op_norm(rebuilt - p) <= 2.1e-11

    p = _moved_off_diagonal(1e-4, 2e-7)
    assert is_strict_projection(p)
    with pytest.raises(PostconditionFailure, match=r"^projection parameter residual 2\.000e-07$"):
        params_from_strict_projection(p)
    with pytest.raises(PostconditionFailure, match=r"^pivot conjugation residual 2\.000e-07$"):
        conjugate_to_pivot(p)


def test_dilation_scalar_fixture():
    half = 0.5 * np.eye(1, dtype=complex)
    a1, b1 = dilate_commuting_pair(half, half)
    assert np.allclose(a1, FIX_A)
    assert np.allclose(b1, FIX_B)
    assert is_abs_compatible(a1, b1).compatible


def test_dilation_doubled_eigenvalue():
    a1, b1 = dilate_commuting_pair(
        0.6 * np.eye(1, dtype=complex), 0.3 * np.eye(1, dtype=complex)
    )
    diff = absolute_value(a1 - b1)
    assert op_norm(diff - 0.45 * np.eye(2)) <= 1e-12


def test_dilation_preconditions():
    nine = 0.9 * np.eye(2, dtype=complex)
    with pytest.raises(SumExceedsOne, match=r"a\^2 \+ b\^2 is 1\.620e\+00$"):
        dilate_commuting_pair(nine, nine)
    with pytest.raises(NotStrict):
        dilate_commuting_pair(np.diag([1.0, 0.5]).astype(complex), 0.1 * np.eye(2))
    p = np.diag([1.0, 0.0]).astype(complex)
    q = 0.5 * np.ones((2, 2), dtype=complex)
    with pytest.raises(NotCommuting):
        dilate_commuting_pair(0.2 * np.eye(2) + 0.1 * p, 0.2 * np.eye(2) + 0.1 * q)


def test_dilation_jordan_identity():
    for i in range(15):
        a, b = random_commuting_strict_pair(3, derive_seed(35, i))
        a1, b1 = dilate_commuting_pair(a, b)
        want = np.zeros((6, 6), dtype=complex)
        want[3:, 3:] = np.eye(3) - a @ a - b @ b
        assert op_norm(jordan_product(a1, b1) - want) <= 1e-10
        assert is_abs_compatible(a1, b1).residual <= DEFAULT_TOL.compat


def _edges(cut):
    """cut and the floats one ulp below and above it."""
    return [cut, np.nextafter(cut, -1.0), np.nextafter(cut, 2.0)]


# every strictness gate cuts at tol.spec and 1 - tol.spec (hermitian._levels)
SPEC = DEFAULT_TOL.spec
EDGES = _edges(SPEC) + _edges(1.0 - SPEC)


@pytest.mark.parametrize("v", EDGES)
def test_null_and_support_ranks_at_the_cut(v):
    """An eigenvalue v of an effect is in the kernel when v <= tol.spec and
    in the eigenspace at 1 when v >= 1 - tol.spec, to the ulp."""
    a = np.diag([v, 0.5]).astype(complex)
    assert v in np.linalg.eigh(a)[0]
    assert round(np.trace(null_projection(a)).real) == int(v <= SPEC)
    assert round(np.trace(support_projection(a)).real) == int(v >= 1.0 - SPEC)


@pytest.mark.parametrize("v", EDGES)
def test_strict_entry_gates_at_the_cut(v):
    """A site's entry modulus, or its projection's (1,1) entry, is strict
    exactly when it lies inside (tol.spec, 1 - tol.spec), to the ulp.  The
    unitary gate is read at a unitarity slack that lets one modulus sit
    at any value beside strict ones."""
    strict = SPEC < v < 1.0 - SPEC
    loose = DEFAULT_TOL.override(unit=1.0)
    assert is_strict_unitary(SiteBlockMatrix(np.array([[[v, 0.5], [0.5, -v]]], dtype=complex)), loose) == strict
    off = np.sqrt(v * (1.0 - v))
    p = SiteBlockMatrix(np.array([[[v, off], [off, 1.0 - v]]], dtype=complex))
    assert p.entry(0, 0)[0].real == v
    assert is_strict_projection(p) == strict


def _square_sum(x):
    """The 1x1 effect x and the eigenvalue of a^2 + b^2 that
    dilate_commuting_pair computes for the pair (x, x)."""
    a = np.array([[x]], dtype=complex)
    return a, np.linalg.eigvalsh(hermitize(a @ a + a @ a))[0]


@pytest.mark.parametrize("step", range(3))
def test_dilation_gates_at_the_cut(step):
    """a^2 + b^2 exceeds one when an eigenvalue s is at least 1 - tol.spec,
    and is not strict when one is at most tol.spec, to the ulp: tol.spec
    puts the cut on s, one ulp below it or one above it."""
    a, s = _square_sum(0.67)
    cut = _edges(s)[step]
    tol = DEFAULT_TOL.override(spec=1.0 - cut)
    assert 1.0 - tol.spec == cut
    with pytest.raises(SumExceedsOne) if s >= cut else contextlib.nullcontext():
        dilate_commuting_pair(a, a, tol)
    a, s = _square_sum(0.2)
    cut = _edges(s)[step]
    with pytest.raises(NotStrict, match=r"a\^2 \+ b\^2") if s <= cut else contextlib.nullcontext():
        dilate_commuting_pair(a, a, DEFAULT_TOL.override(spec=cut))


def test_pair_from_params_fixture():
    a, b = pair_from_params([0.5], StrictProjectionParams(a0=[RT2], w=[1.0]))
    assert np.allclose(a, FIX_A)
    assert np.allclose(b, FIX_B)
    with pytest.raises(NotStrictParams):
        pair_from_params([1.0], StrictProjectionParams(a0=[RT2], w=[1.0]))


def test_canonicalize_fixture():
    cf = canonicalize(FIX_A, FIX_B)
    assert cf.m == 1
    assert np.allclose(cf.x0, [0.5], atol=1e-12)
    assert np.allclose(cf.a0, [RT2], atol=1e-12)
    assert np.allclose(cf.w, [1.0])
    ra, rb = cf.reconstruct()
    assert max(op_norm(ra - FIX_A), op_norm(rb - FIX_B)) <= DEFAULT_TOL.canon


def test_canonicalize_rejections():
    a = np.diag([0.4, 0.6]).astype(complex)
    with pytest.raises(NotAbsolutelyCompatible):
        canonicalize(a, a)
    with pytest.raises(NotStrict):
        canonicalize(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    trio = np.diag([0.3, 0.4, 0.5]).astype(complex)
    with pytest.raises(OddDimension):
        canonicalize(trio, trio)


def test_canonicalize_round_trip():
    for i in range(30):
        n = (2, 4, 8)[i % 3]
        x0, params, u = random_pair_params(n, derive_seed(45, i))
        base_a, base_b = pair_from_params(x0, params)
        a = hermitize(u @ base_a @ dagger(u))
        b = hermitize(u @ base_b @ dagger(u))
        cf = canonicalize(a, b)
        ra, rb = cf.reconstruct()
        assert max(op_norm(ra - a), op_norm(rb - b)) <= DEFAULT_TOL.canon
        assert np.max(np.abs(np.sort(x0) - cf.x0)) <= 1e-9
        # per-site doubled spectra of the two moduli
        diff = absolute_value(a - b)
        want = cf.u0 @ np.diag(np.repeat(cf.x0, 2)) @ dagger(cf.u0)
        assert op_norm(diff - want) <= DEFAULT_TOL.canon
        zmod = absolute_value(np.eye(n) - a - b)
        want = cf.u0 @ np.diag(np.repeat(1.0 - cf.x0, 2)) @ dagger(cf.u0)
        assert op_norm(zmod - want) <= DEFAULT_TOL.canon


def test_canonical_outputs_strict():
    for i in range(10):
        x0, params, u = random_pair_params(6, derive_seed(55, i))
        a, b = pair_from_params(x0, params)
        assert is_strict(a) and is_strict(b)
        vals = np.linalg.eigvalsh(a)
        assert vals[0] > 0.0 and vals[-1] < 1.0


def test_canonical_form_sites_sorted():
    x0, params, u = random_pair_params(8, 65)
    a, b = pair_from_params(x0, params)
    cf = canonicalize(a, b)
    assert np.all(np.diff(cf.x0) >= -1e-12)


def test_exchanged_pivot_form():
    for i in range(10):
        n = (2, 4, 6)[i % 3]
        x0, params, u = random_pair_params(n, derive_seed(75, i))
        base_a, base_b = pair_from_params(x0, params)
        a = hermitize(u @ base_a @ dagger(u))
        b = hermitize(u @ base_b @ dagger(u))
        cf = canonicalize(a, b)
        ex = exchanged_pivot_form(cf)
        ea, eb = ex.reconstruct()
        ra, rb = cf.reconstruct()
        assert max(op_norm(ea - ra), op_norm(eb - rb)) <= DEFAULT_TOL.canon
        # the exchanged projection is written in the phase-free gauge
        assert np.all(np.abs(np.imag(ex.a0)) <= 1e-12)


def test_canonical_json_schema():
    cf = canonicalize(FIX_A, FIX_B)
    blob = cf.to_json()
    assert blob["m"] == 1
    assert set(blob) == {"m", "x0", "a0", "w", "U0"}
    assert blob["U0"]["n"] == 2
