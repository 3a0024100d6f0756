"""Spectral toolbox tests: eigendecomposition, functional calculus,
support/null/range projections, strictness, polar factor."""

import numpy as np
import pytest

from abscompat import DEFAULT_TOL
from abscompat.errors import (
    DimensionMismatch,
    DomainError,
    NegativeSpectrum,
    NotHermitian,
    NotProjection,
    NotUnitary,
)
from abscompat.hermitian import (
    absolute_value,
    cluster_indices,
    commutator_norm,
    dagger,
    eig_hermitian,
    hermitize,
    is_strict,
    jordan_product,
    matrix_function,
    null_projection,
    op_norm,
    polar_unitary,
    range_projection,
    require_effect,
    require_hermitian,
    require_projection,
    require_unitary,
    support_projection,
)
from abscompat.generate import derive_seed, haar_unitary, random_strict_effect


def _rand_hermitian(n, seed):
    gen = np.random.Generator(np.random.Philox(key=seed))
    x = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return hermitize(x)


def test_eig_fixtures():
    vals = eig_hermitian(np.eye(2)).eigenvalues
    assert np.allclose(vals, [1.0, 1.0])

    dec = eig_hermitian(np.diag([0.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [0.0, 1.0])
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))

    # characteristic polynomial t^2 - 2t
    dec = eig_hermitian(np.ones((2, 2)))
    assert np.allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_eig_reconstruction_and_determinism():
    for i in range(25):
        h = _rand_hermitian(2 + i % 7, derive_seed(101, i))
        dec = eig_hermitian(h)
        res = op_norm(dec.reconstruct() - h)
        assert res <= 1e-10 * max(1.0, op_norm(h))
        again = eig_hermitian(h.copy())
        assert again.eigenvalues.tobytes() == dec.eigenvalues.tobytes()
        assert again.eigenvectors.tobytes() == dec.eigenvectors.tobytes()


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_function_fixtures():
    h = _rand_hermitian(5, 7)
    assert op_norm(matrix_function(h, lambda t: t) - h) <= 1e-12

    root = matrix_function(np.diag([4.0, 9.0]), np.sqrt)
    assert np.allclose(root, np.diag([2.0, 3.0]))

    sq = matrix_function(np.ones((2, 2)), lambda t: t * t)
    assert np.allclose(sq, 2.0 * np.ones((2, 2)), atol=1e-12)


def test_matrix_function_domain_error():
    with pytest.raises(DomainError):
        matrix_function(np.diag([1.0, -4.0]), np.sqrt)
    with pytest.raises(DomainError):
        matrix_function(np.diag([0.0, 1.0]), lambda t: 1.0 / t)


def test_absolute_value_fixtures():
    assert np.allclose(absolute_value(np.diag([1.0, -1.0])), np.eye(2))
    assert np.allclose(absolute_value(np.zeros((3, 3))), np.zeros((3, 3)))

    a = np.array([[0.25, 0.25], [0.25, 0.75]], dtype=complex)
    b = np.array([[0.25, -0.25], [-0.25, 0.75]], dtype=complex)
    assert op_norm(absolute_value(a - b) - 0.5 * np.eye(2)) <= 1e-12


def test_absolute_value_non_hermitian_input():
    # |x| = (x* x)^(1/2) must also hold away from the Hermitian fast path
    gen = np.random.Generator(np.random.Philox(key=5))
    x = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    m = absolute_value(x)
    assert op_norm(hermitize(m) - m) <= 1e-12
    assert op_norm(m @ m - dagger(x) @ x) <= 1e-10


def test_abs_idempotent_on_positives():
    for i in range(10):
        a = random_strict_effect(4, derive_seed(33, i))
        assert op_norm(absolute_value(a) - a) <= 1e-12


def test_support_null_range_fixtures():
    assert np.allclose(support_projection(np.eye(3)), np.eye(3))
    assert np.allclose(support_projection(np.diag([1.0, 0.5])), np.diag([1.0, 0.0]))
    assert op_norm(support_projection(random_strict_effect(4, 1))) == 0.0

    assert np.allclose(null_projection(np.zeros((2, 2))), np.eye(2))
    assert np.allclose(null_projection(np.diag([0.0, 0.5])), np.diag([1.0, 0.0]))
    assert op_norm(null_projection(random_strict_effect(4, 2))) == 0.0

    assert np.allclose(range_projection(np.diag([0.0, 0.3])), np.diag([0.0, 1.0]))
    assert np.allclose(range_projection(np.eye(2)), np.eye(2))
    assert np.allclose(range_projection(np.zeros((2, 2))), np.zeros((2, 2)))


def _conjugated(vals, seed):
    u = haar_unitary(len(vals), seed)
    return hermitize(u @ np.diag(vals) @ dagger(u))


@pytest.mark.parametrize("bad", [
    _conjugated([-0.25, 0.5, 0.75], 3),
    _conjugated([-2e-9, 0.5, 0.75], 4),
    _conjugated([0.5, 1.5], 5),
    _conjugated([0.5, 1.0 + 2e-9], 6),
    np.array([[0.5, 1e-3], [0.0, 0.5]]),
    np.ones((2, 3)),
], ids=["negative", "slightly-negative", "above-one", "slightly-above-one",
        "non-hermitian", "non-square"])
def test_support_null_reject_like_require_effect(bad):
    with pytest.raises(Exception) as ref:
        require_effect(bad)
    for fn in (support_projection, null_projection):
        with pytest.raises(type(ref.value)) as got:
            fn(bad)
        assert str(got.value) == str(ref.value)


def test_range_rejects_negative():
    with pytest.raises(NegativeSpectrum):
        range_projection(np.diag([-0.5, 1.0]))


def test_projection_identities():
    # r(a) + n(a) = I and s(a) n(a) = 0 on random effects with mixed spectrum
    for i in range(15):
        gen = np.random.Generator(np.random.Philox(key=derive_seed(44, i)))
        n = 5
        vals = np.concatenate([[0.0, 1.0], gen.random(n - 2)])
        u = haar_unitary(n, derive_seed(45, i))
        a = hermitize((u * vals) @ dagger(u))
        r = range_projection(a)
        nn = null_projection(a)
        s = support_projection(a)
        assert op_norm(r + nn - np.eye(n)) <= 1e-9
        assert op_norm(s @ nn) <= 1e-9
        assert op_norm(r @ a - a) <= 1e-9


def test_is_strict():
    assert is_strict(0.5 * np.eye(2))
    assert not is_strict(np.diag([1.0, 0.0]))
    assert not is_strict(np.zeros((2, 2)))
    assert not is_strict(np.eye(2))

    a = np.diag([0.3, 0.9])
    assert is_strict(a)
    assert is_strict(np.eye(2) - a)

    rep = is_strict(np.diag([1.0, 0.5, 0.0]))
    assert rep.support_rank == 1 and rep.null_rank == 1
    assert not rep


def test_strict_complement_property():
    for i in range(20):
        a = random_strict_effect(6, derive_seed(77, i), margin=0.05)
        assert is_strict(a)
        assert is_strict(np.eye(6) - a)


def test_polar_fixtures():
    u, mod = polar_unitary(np.diag([-1.0, 2.0]))
    assert np.allclose(u, np.diag([-1.0, 1.0]))
    assert np.allclose(mod, np.diag([1.0, 2.0]))

    w = haar_unitary(4, 9)
    u, mod = polar_unitary(w)
    assert op_norm(u - w) <= 1e-12
    assert op_norm(mod - np.eye(4)) <= 1e-12

    u, mod = polar_unitary(np.zeros((3, 3)))
    assert np.allclose(u, np.eye(3))
    assert op_norm(mod) == 0.0


def test_polar_reconstructs():
    for i in range(15):
        gen = np.random.Generator(np.random.Philox(key=derive_seed(88, i)))
        x = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        u, mod = polar_unitary(x)
        assert op_norm(dagger(u) @ u - np.eye(4)) <= DEFAULT_TOL.unit
        assert op_norm(u @ mod - x) <= 1e-10 * max(1.0, op_norm(x))


def test_jordan_product():
    a = np.diag([0.2, 0.5])
    b = np.diag([0.4, 0.1])
    assert np.allclose(jordan_product(a, b), a @ b)
    h = _rand_hermitian(3, 3)
    assert np.allclose(jordan_product(h, h), h @ h)
    with pytest.raises(DimensionMismatch):
        jordan_product(np.eye(2), np.eye(3))


def test_commutator_norm():
    assert commutator_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0
    p = np.diag([1.0, 0.0])
    q = 0.5 * np.ones((2, 2))
    assert commutator_norm(p, q) > 0.4


def test_require_effect_bounds():
    require_effect(np.diag([0.0, 1.0]))
    with pytest.raises(NegativeSpectrum):
        require_effect(np.diag([-0.1, 0.5]))
    with pytest.raises(DomainError):
        require_effect(np.diag([0.5, 1.1]))


def test_gates_decide_on_the_operator_norm():
    # ||U*U - I|| is t, its Frobenius norm 2t: inside tol.unit only the
    # exact norm, and a rejection reports that norm
    for t, ok in ((0.8e-10, True), (1.2e-10, False)):
        u = np.sqrt(1.0 + t) * np.eye(4)
        if ok:
            require_unitary(u)
            continue
        with pytest.raises(NotUnitary) as exc:
            require_unitary(u)
        assert str(exc.value) == "||U*U - I|| = %.3e > %.3e" % (t, DEFAULT_TOL.unit)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warning
@pytest.mark.parametrize("gate, error", [(require_unitary, NotUnitary),
                                         (require_projection, NotProjection)])
def test_overflowing_gates_raise_their_own_error(gate, error):
    # U*U - I and P^2 - P overflow to inf for finite entries near 1e300:
    # the gate rejects with its own error and an infinite deviation
    with pytest.raises(error) as exc:
        gate(1e300 * np.eye(4))
    assert " = inf > " in str(exc.value)


def test_op_norm_rejects_what_is_not_a_finite_matrix():
    with pytest.raises(DomainError):
        op_norm(np.full((2, 2), np.inf))
    with pytest.raises(DomainError):
        op_norm("abc")
    with pytest.raises(DimensionMismatch):
        op_norm(np.ones(3))
    assert op_norm(np.zeros((0, 0))) == 0.0


def test_huge_eigenvalues_give_short_messages():
    with pytest.raises(DomainError) as exc:
        require_effect(1e300 * np.eye(4))
    assert str(exc.value) == "largest eigenvalue 1.000e+300 exceeds 1"


def test_require_hermitian_returns_symmetrized():
    h = require_hermitian(np.array([[1.0, 1e-12], [0.0, 2.0]]))
    assert op_norm(h - dagger(h)) == 0.0


def test_cluster_indices():
    vals = np.array([0.0, 1e-12, 0.5, 0.5 + 1e-12, 1.0])
    groups = cluster_indices(vals, 1e-8)
    assert [list(g) for g in groups] == [[0, 1], [2, 3], [4]]
    assert [list(g) for g in cluster_indices(np.array([]), 1e-8)] == []

