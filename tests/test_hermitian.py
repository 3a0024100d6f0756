"""Spectral toolbox tests: validation, norms, the strictness cut, the
gates of effects, unitaries and projections."""

import numpy as np
import pytest

from abscompat import DEFAULT_TOL
from abscompat.canonical import is_strict_projection, is_strict_unitary
from abscompat.compat import five_block_decompose, projection_compat_equiv
from abscompat.errors import (
    DimensionMismatch,
    DomainError,
    NegativeSpectrum,
    NotHermitian,
    NotProjection,
    NotUnitary,
)
from abscompat.hermitian import (
    _hnorm_beyond,
    _strict_rows,
    cluster_indices,
    dagger,
    hermitize,
    is_strict,
    jordan_product,
    op_norm,
    require_hermitian,
)
from abscompat.generate import _strict_effects, derive_seed, haar_unitary, random_projection


def _rand_hermitian(n, seed):
    gen = np.random.Generator(np.random.Philox(key=seed))
    x = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return hermitize(x)


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
    """The support and null projections of a are the five-block's unit_a
    and null_a; what is not an effect is rejected before they are cut, with
    the class and message of the effect gate, which projection_compat_equiv
    applies to its second operand right after its projection gate."""
    with pytest.raises(Exception) as ref:
        projection_compat_equiv(np.zeros((2, 2)), bad)
    with pytest.raises(type(ref.value)) as got:
        five_block_decompose(bad, bad)
    assert str(got.value) == str(ref.value)


def _support_null(a):
    """The support and null projections of the effect a: the unit_a and
    null_a blocks of its five-block decomposition beside the zero effect."""
    projections = five_block_decompose(a, np.zeros_like(a)).projections()
    return projections["unit_a"], projections["null_a"]


def test_support_null_of_a_projection():
    # a projection p is its own support, and I - p is its kernel
    for i in range(10):
        n = 2 + i % 5
        p = random_projection(n, 1 + i % (n - 1), derive_seed(46, i))
        s, nn = _support_null(p)
        assert op_norm(s - p) <= 1e-9
        assert op_norm(nn - (np.eye(n) - p)) <= 1e-9


def test_support_null_are_exact_projections_and_deterministic():
    for i in range(15):
        gen = np.random.Generator(np.random.Philox(key=derive_seed(47, i)))
        n = 5
        vals = np.concatenate([[0.0, 0.0, 1.0], gen.random(n - 3)])
        u = haar_unitary(n, derive_seed(48, i))
        a = hermitize((u * vals) @ dagger(u))
        spans = _support_null(a)
        for q, again, rank in zip(spans, _support_null(a.copy()), (1, 2)):
            assert op_norm(q - dagger(q)) == 0.0
            assert op_norm(q @ q - q) <= 1e-12
            assert round(float(np.trace(q).real)) == rank
            assert again.tobytes() == q.tobytes()
        assert op_norm(a @ spans[0] - spans[0]) <= 1e-9
        assert op_norm(a @ spans[1]) <= 1e-9


def test_require_hermitian_rejects_asymmetry():
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # the effect gate of five_block_decompose, just past tol.herm
    x = np.array([[0.5, 2 * DEFAULT_TOL.herm], [0.0, 0.5]])
    with pytest.raises(NotHermitian):
        five_block_decompose(x, x)
    # a stack is rejected when any of its matrices is
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]), stack=True)


def test_a_stack_reports_its_first_non_hermitian_matrix():
    """Not the largest deviation of the stack: what its first offender
    reports alone; over a (2, 3) leading shape the first in C order, at
    (0, 1), not the (1, 0) that column order meets first."""
    def skew(dev):
        return np.array([[0.0, dev], [0.0, 0.0]])

    message = r"^max deviation from self-adjointness 1\.000e-06 > 1\.000e-10$"
    with pytest.raises(NotHermitian, match=message):
        require_hermitian(skew(1e-6))
    with pytest.raises(NotHermitian, match=message):
        require_hermitian(np.array([np.eye(2), skew(1e-6), skew(1e-3)]), stack=True)
    grid = np.array([[np.eye(2), skew(1e-6), np.eye(2)], [skew(1e-3), np.eye(2), np.eye(2)]])
    with pytest.raises(NotHermitian, match=message):
        require_hermitian(grid, stack=True)


def test_the_gate_masks_fail_a_nan():
    """_strict_rows and _hnorm_beyond, the masks that the strictness and
    separation gates check, are comparisons that a NaN fails, and
    _hnorm_beyond takes the exact norm between its two Frobenius cuts."""
    rows = np.array([[0.5, 0.5], [0.5, np.nan], [0.5, 1.0]])
    assert _strict_rows(rows, DEFAULT_TOL).tolist() == [True, False, False]
    h = np.array([np.diag(d) for d in ([1.0, 0.0], [np.nan, 0.0], [0.8e-9, 0.8e-9], [1.2e-9, 0.0], [1e-9, 0.0])])
    assert _hnorm_beyond(h, 1e-9).tolist() == [True, False, False, True, False]


def test_hnorm_beyond_is_the_exact_decision_on_rank_one_h():
    """A rank-one h has ||h||_F = ||h|| up to rounding, so a bound within a
    few ulps of its norm lies between the two Frobenius cuts, and
    _hnorm_beyond then decides it as the exact norm does."""
    gen = np.random.Generator(np.random.Philox(key=derive_seed(50, 0)))
    for i in range(1500):
        n = 2 + i % 3
        v = gen.normal(size=n) + 1j * gen.normal(size=n)
        h = hermitize(gen.normal() * np.outer(v, np.conj(v)))
        norm = float(np.abs(np.linalg.eigvalsh(h)).max())
        bounds = [norm]
        for _ in range(3):
            bounds = [np.nextafter(bounds[0], 0.0)] + bounds + [np.nextafter(bounds[-1], np.inf)]
        for bound in bounds:
            assert bool(_hnorm_beyond(h, bound)) == (norm > bound), (i, norm, bound)


def test_levels_masks():
    """is_strict counts a singular value at 1 from 1 - tol.spec up and at 0
    up to tol.spec; the singular value of a 1x1 matrix is its modulus."""
    tol = DEFAULT_TOL
    vals = np.array([-tol.spec, 0.0, tol.spec, 2 * tol.spec, 0.5,
                     1.0 - 2 * tol.spec, 1.0 - tol.spec, 1.0, 1.0 + tol.spec])
    reports = [is_strict(np.array([[v]]), tol) for v in vals]
    assert [r.spectrum_min for r in reports] == np.abs(vals).tolist()
    assert [r.support_rank == 1 for r in reports] == [False] * 6 + [True] * 3
    assert [r.null_rank == 1 for r in reports] == [True] * 3 + [False] * 6
    # no value can be within tol.spec of both ends: such a spec is refused
    with pytest.raises(DomainError, match="^tolerance 'spec' must be below 0.5, got 0.6$"):
        tol.override(spec=0.6)


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

    rep = is_strict(np.zeros((0, 0)))
    assert rep.strict and (rep.support_rank, rep.null_rank) == (0, 0)
    assert np.isnan(rep.spectrum_min) and np.isnan(rep.spectrum_max)


def test_strict_complement_property():
    for i in range(20):
        a = _strict_effects(6, derive_seed(77, i), 0.05)
        assert is_strict(a)
        assert is_strict(np.eye(6) - a)


def test_jordan_product():
    a = np.diag([0.2, 0.5])
    b = np.diag([0.4, 0.1])
    assert np.allclose(jordan_product(a, b), a @ b)
    h = _rand_hermitian(3, 3)
    assert np.allclose(jordan_product(h, h), h @ h)
    stack = np.array([a, b, np.diag([0.3, 0.9])])
    for x, y, z in zip(stack, stack[::-1], jordan_product(stack, stack[::-1])):
        assert np.array_equal(z, jordan_product(x, y))
    with pytest.raises(DimensionMismatch):
        jordan_product(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        jordan_product(stack, stack[:2])


def _effect_gate(a):
    """The effect gate on a: projection_compat_equiv applies it to its
    second operand, here beside the zero projection."""
    return projection_compat_equiv(np.zeros(np.shape(a)), a)


def test_require_effect_bounds():
    _effect_gate(np.diag([0.0, 1.0]))
    with pytest.raises(NegativeSpectrum):
        _effect_gate(np.diag([-0.1, 0.5]))
    with pytest.raises(DomainError):
        _effect_gate(np.diag([0.5, 1.1]))


def test_gates_decide_on_the_operator_norm():
    # ||U*U - I|| is t, and on each 2x2 site its Frobenius norm is
    # sqrt(2) t: inside tol.unit only the exact norm, and a rejection
    # reports that norm
    for t, ok in ((0.8e-10, True), (1.2e-10, False)):
        u = np.sqrt(1.0 + t) * np.eye(4)
        if ok:
            is_strict_unitary(u, DEFAULT_TOL)
            continue
        with pytest.raises(NotUnitary) as exc:
            is_strict_unitary(u, DEFAULT_TOL)
        assert str(exc.value) == "||U*U - I|| = %.3e > %.3e" % (t, DEFAULT_TOL.unit)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warning
@pytest.mark.parametrize("gate, error", [(is_strict_unitary, NotUnitary), (is_strict_projection, NotProjection)])
def test_overflowing_gates_raise_their_own_error(gate, error):
    # U*U - I and P^2 - P overflow to inf for finite entries near 1e300:
    # the gate rejects with its own error and an infinite deviation
    with pytest.raises(error) as exc:
        gate(1e300 * np.eye(4), DEFAULT_TOL)
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
        _effect_gate(1e300 * np.eye(4))
    assert str(exc.value) == "largest eigenvalue 1.000e+300 exceeds 1"


def test_require_hermitian_returns_symmetrized():
    h = require_hermitian(np.array([[1.0, 1e-12], [0.0, 2.0]]))
    assert op_norm(h - dagger(h)) == 0.0


def test_cluster_indices():
    vals = np.array([0.0, 1e-12, 0.5, 0.5 + 1e-12, 1.0])
    groups = cluster_indices(vals, 1e-8)
    assert [list(g) for g in groups] == [[0, 1], [2, 3], [4]]
    assert [list(g) for g in cluster_indices(np.array([]), 1e-8)] == []

