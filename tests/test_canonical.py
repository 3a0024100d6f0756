"""Canonical form, site-block algebra, strict parametrizations, dilation."""

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
    SumExceedsOne,
)
from abscompat.generate import (
    derive_seed,
    random_commuting_strict_pair,
    random_pair_params,
    random_strict_projection_params,
    random_strict_unitary_params,
)
from abscompat.hermitian import absolute_value, dagger, hermitize, is_strict, jordan_product, op_norm

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
