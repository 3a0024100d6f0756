"""Spectral toolbox tests: validation, norms, spectral composition,
level projections, strictness."""

import numpy as np
import pytest

from abscompat import DEFAULT_TOL
from abscompat.compat import five_block_decompose
from abscompat.errors import (
    DimensionMismatch,
    DomainError,
    NegativeSpectrum,
    NotHermitian,
    NotProjection,
    NotUnitary,
)
from abscompat.hermitian import (
    _compose,
    _effect,
    _hnorm,
    _hnorm_beyond,
    _levels,
    _projection,
    _require,
    _span,
    _strict_rows,
    _unitary,
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


def _modulus(h):
    """|h| of a Hermitian h as compat._pair_spectra composes it."""
    vals, vecs = np.linalg.eigh(h)
    return _compose(np.abs(vals), vecs)


def _level_spans(a):
    """The eigenspaces of the effect a at 1 and at 0, cut by
    hermitian._levels from one eigh."""
    vals, vecs = np.linalg.eigh(a)
    return tuple(_span(vecs[:, mask]) for mask in _levels(vals, DEFAULT_TOL))


def test_absolute_value_fixtures():
    assert np.allclose(_modulus(np.diag([1.0, -1.0])), np.eye(2))
    assert np.allclose(_modulus(np.zeros((3, 3))), np.zeros((3, 3)))

    a = np.array([[0.25, 0.25], [0.25, 0.75]], dtype=complex)
    b = np.array([[0.25, -0.25], [-0.25, 0.75]], dtype=complex)
    assert op_norm(_modulus(a - b) - 0.5 * np.eye(2)) <= 1e-12


def test_abs_idempotent_on_positives():
    for i in range(10):
        a = _strict_effects(4, derive_seed(33, i), 0.1)
        assert op_norm(_modulus(a) - a) <= 1e-12


def test_absolute_value_of_hermitian_is_root_of_square():
    # for Hermitian h, |h| = (h^2)^(1/2): eigenvalues |t|, eigenvectors kept
    assert np.allclose(_modulus(np.diag([-2.0, 3.0])), np.diag([2.0, 3.0]))
    assert np.allclose(_modulus(np.ones((2, 2))), np.ones((2, 2)), atol=1e-12)
    for i in range(10):
        h = _rand_hermitian(2 + i % 5, derive_seed(101, i))
        m = _modulus(h)
        scale = max(1.0, op_norm(h)) ** 2
        assert op_norm(m @ m - h @ h) <= 1e-10 * scale
        assert op_norm(m @ h - h @ m) <= 1e-10 * scale
        assert np.linalg.eigvalsh(m).min() >= -1e-12


def test_support_null_range_fixtures():
    assert np.allclose(_level_spans(np.eye(3))[0], np.eye(3))
    assert np.allclose(_level_spans(np.diag([1.0, 0.5]))[0], np.diag([1.0, 0.0]))
    assert op_norm(_level_spans(_strict_effects(4, 1, 0.1))[0]) == 0.0

    assert np.allclose(_level_spans(np.zeros((2, 2)))[1], np.eye(2))
    assert np.allclose(_level_spans(np.diag([0.0, 0.5]))[1], np.diag([1.0, 0.0]))
    assert op_norm(_level_spans(_strict_effects(4, 2, 0.1))[1]) == 0.0


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
    the class and message of the effect gate _effect."""
    with pytest.raises(Exception) as ref:
        _effect(bad, DEFAULT_TOL)
    with pytest.raises(type(ref.value)) as got:
        five_block_decompose(bad, bad)
    assert str(got.value) == str(ref.value)


def test_projection_identities():
    # s(a) n(a) = 0 on random effects with mixed spectrum
    for i in range(15):
        gen = np.random.Generator(np.random.Philox(key=derive_seed(44, i)))
        n = 5
        vals = np.concatenate([[0.0, 1.0], gen.random(n - 2)])
        u = haar_unitary(n, derive_seed(45, i))
        a = hermitize((u * vals) @ dagger(u))
        s, nn = _level_spans(a)
        assert op_norm(s @ nn) <= 1e-9


def test_support_null_degenerate_fixtures():
    s, nn = _level_spans(np.eye(2))
    assert op_norm(s - np.eye(2)) <= 1e-15
    assert op_norm(nn) == 0.0

    # ones/2 has spectrum {0, 1}: s and n split C^2 along (1, 1) and (1, -1)
    half = 0.5 * np.ones((2, 2))
    s, nn = _level_spans(half)
    assert op_norm(s - half) <= 1e-12
    assert op_norm(nn - (np.eye(2) - half)) <= 1e-12


def test_support_null_of_a_projection():
    # a projection p is its own support, and I - p is its kernel
    for i in range(10):
        n = 2 + i % 5
        p = random_projection(n, 1 + i % (n - 1), derive_seed(46, i))
        s, nn = _level_spans(p)
        assert op_norm(s - p) <= 1e-9
        assert op_norm(nn - (np.eye(n) - p)) <= 1e-9


def test_support_null_are_exact_projections_and_deterministic():
    for i in range(15):
        gen = np.random.Generator(np.random.Philox(key=derive_seed(47, i)))
        n = 5
        vals = np.concatenate([[0.0, 0.0, 1.0], gen.random(n - 3)])
        u = haar_unitary(n, derive_seed(48, i))
        a = hermitize((u * vals) @ dagger(u))
        spans = _level_spans(a)
        for q, again, rank in zip(spans, _level_spans(a.copy()), (1, 2)):
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
    reports alone."""
    def skew(dev):
        return np.array([[0.0, dev], [0.0, 0.0]])

    message = r"^max deviation from self-adjointness 1\.000e-06 > 1\.000e-10$"
    with pytest.raises(NotHermitian, match=message):
        require_hermitian(skew(1e-6))
    with pytest.raises(NotHermitian, match=message):
        require_hermitian(np.array([np.eye(2), skew(1e-6), skew(1e-3)]), stack=True)


def test_require_reads_the_first_failing_element_in_c_order():
    """Over a (2, 3) leading shape the first failure in C order is (0, 1),
    not the (1, 0) that column order meets first; a NaN fails; a value of
    ok's leading shape is read there, as a Python float or list under %r,
    and any other value belongs to every element."""
    values = np.array([[0.0, 5.0, 0.0], [4.0, 0.0, 0.0]])
    points = np.arange(18.0).reshape(2, 3, 3)
    _require(values <= 5.0, DomainError, "never raised")
    with pytest.raises(DomainError, match=r"^5\.0 at \[3\.0, 4\.0, 5\.0\] above 1\.0$"):
        _require(values <= 1.0, DomainError, "%r at %r above %r", values, points, 1.0)
    values[0, 1], values[1, 0] = 0.0, np.nan
    with pytest.raises(DomainError, match=r"^nan at \[9\.0, 10\.0, 11\.0\]$"):
        _require(values <= 1.0, DomainError, "%r at %r", values, points)


def test_the_gate_masks_fail_a_nan():
    """_strict_rows and _hnorm_beyond, the masks that the strictness and
    separation gates hand _require, are comparisons that a NaN fails, and
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
        norm = _hnorm(h)
        bounds = [norm]
        for _ in range(3):
            bounds = [np.nextafter(bounds[0], 0.0)] + bounds + [np.nextafter(bounds[-1], np.inf)]
        for bound in bounds:
            assert bool(_hnorm_beyond(h, bound)) == (norm > bound), (i, norm, bound)


def test_span_is_the_column_projection():
    for i in range(8):
        n = 2 + i % 5
        q = haar_unitary(n, derive_seed(49, i))
        for k in range(n + 1):
            p = _span(q[:, :k])
            assert op_norm(p - dagger(p)) == 0.0
            assert op_norm(p @ p - p) <= 1e-12
            assert op_norm(p @ q - q[:, :k] @ dagger(q[:, :k]) @ q) <= 1e-12
            assert round(float(np.trace(p).real)) == k


def test_levels_masks():
    tol = DEFAULT_TOL
    vals = np.array([-tol.spec, 0.0, tol.spec, 2 * tol.spec, 0.5,
                     1.0 - 2 * tol.spec, 1.0 - tol.spec, 1.0, 1.0 + tol.spec])
    one, zero = _levels(vals, tol)
    assert one.tolist() == [False] * 6 + [True] * 3
    assert zero.tolist() == [True] * 3 + [False] * 6
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


def test_require_effect_bounds():
    _effect(np.diag([0.0, 1.0]), DEFAULT_TOL)
    with pytest.raises(NegativeSpectrum):
        _effect(np.diag([-0.1, 0.5]), DEFAULT_TOL)
    with pytest.raises(DomainError):
        _effect(np.diag([0.5, 1.1]), DEFAULT_TOL)


def test_gates_decide_on_the_operator_norm():
    # ||U*U - I|| is t, its Frobenius norm 2t: inside tol.unit only the
    # exact norm, and a rejection reports that norm
    for t, ok in ((0.8e-10, True), (1.2e-10, False)):
        u = np.sqrt(1.0 + t) * np.eye(4)
        if ok:
            _unitary(u, DEFAULT_TOL)
            continue
        with pytest.raises(NotUnitary) as exc:
            _unitary(u, DEFAULT_TOL)
        assert str(exc.value) == "||U*U - I|| = %.3e > %.3e" % (t, DEFAULT_TOL.unit)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warning
@pytest.mark.parametrize("gate, error", [(_unitary, NotUnitary), (_projection, NotProjection)])
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
        _effect(1e300 * np.eye(4), DEFAULT_TOL)
    assert str(exc.value) == "largest eigenvalue 1.000e+300 exceeds 1"


def test_require_hermitian_returns_symmetrized():
    h = require_hermitian(np.array([[1.0, 1e-12], [0.0, 2.0]]))
    assert op_norm(h - dagger(h)) == 0.0


def test_cluster_indices():
    vals = np.array([0.0, 1e-12, 0.5, 0.5 + 1e-12, 1.0])
    groups = cluster_indices(vals, 1e-8)
    assert [list(g) for g in groups] == [[0, 1], [2, 3], [4]]
    assert [list(g) for g in cluster_indices(np.array([]), 1e-8)] == []

