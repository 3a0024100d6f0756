import numpy as np
import pytest

from abscompat import DEFAULT_TOL
from abscompat.canonical import canonicalize
from abscompat.compat import (
    BLOCK_NAMES,
    five_block_decompose,
    is_abs_compatible,
    is_orthogonal,
    projection_compat_equiv,
)
from abscompat.errors import NotAbsolutelyCompatible
from abscompat.generate import (
    _commuting_projection_effects,
    _strict_effects,
    derive_seed,
    haar_unitary,
    random_abscompat_pair,
    random_orthogonal_pair,
    random_projection,
)
from abscompat.hermitian import dagger, hermitize, op_norm

FIX_A = np.array([[0.25, 0.25], [0.25, 0.75]], dtype=complex)
FIX_B = np.array([[0.25, -0.25], [-0.25, 0.75]], dtype=complex)


def test_projection_with_itself_is_compatible():
    # |0| + |I - 2p| = I since (I - 2p)^2 = I
    for i in range(8):
        p = random_projection(4, 1 + i % 3, derive_seed(11, i))
        rep = is_abs_compatible(p, p)
        assert rep.compatible
        assert rep.residual <= 1e-12


def test_half_identity_fails():
    a = 0.5 * np.eye(2)
    rep = is_abs_compatible(a, a)
    assert not rep.compatible
    assert abs(rep.residual - 1.0) <= 1e-12


def test_fixture_pair_compatible():
    rep = is_abs_compatible(FIX_A, FIX_B)
    assert rep.compatible and rep.residual <= 1e-12


def test_constructed_pairs_compatible():
    for i in range(20):
        a, b = random_abscompat_pair((2, 4, 8)[i % 3], derive_seed(21, i))
        assert is_abs_compatible(a, b).residual <= DEFAULT_TOL.compat


def test_symmetry_is_exact():
    for i in range(10):
        a, b = random_abscompat_pair(4, derive_seed(31, i))
        fwd = is_abs_compatible(a, b)
        rev = is_abs_compatible(b, a)
        assert fwd.residual == rev.residual
        assert fwd.compatible == rev.compatible


@pytest.mark.parametrize("n", [4, 8, 96])
def test_canonical_x0_is_symmetric_to_the_bit(n):
    """x0 comes from the eigh of 1-a-b alone, which is symmetric in the
    operands, so canonicalize(b, a) has the bits of canonicalize(a, b)'s
    x0 wherever no two sites of x0 cluster."""
    for i in range(20):
        a, b = random_abscompat_pair(n, derive_seed(32, 100 * n + i))
        fwd, rev = canonicalize(a, b), canonicalize(b, a)
        assert np.all(np.diff(fwd.x0) > DEFAULT_TOL.cluster), (i, fwd.x0)
        assert fwd.x0.tobytes() == rev.x0.tobytes(), (i, fwd.x0 - rev.x0)


def test_orthogonal_fixtures():
    assert is_orthogonal(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    a = np.diag([0.5, 0.0])
    assert not is_orthogonal(a, a)


def test_orthogonality_equivalence():
    """ab = 0 forces a + b <= 1 together with absolute compatibility,
    and generic compatible pairs break the product side."""
    for i in range(40):
        n = (2, 4, 8)[i % 3]
        a, b = random_orthogonal_pair(n, derive_seed(41, i))
        assert is_orthogonal(a, b)
        assert float(np.linalg.eigvalsh(a + b)[-1]) <= 1.0 + 1e-12
        assert is_abs_compatible(a, b).compatible

        c, d = random_abscompat_pair(n, derive_seed(42, i))
        assert is_abs_compatible(c, d).compatible
        # these pairs exceed 1 in the sum direction, so ab = 0 must fail
        assert op_norm(c @ d) > DEFAULT_TOL.compat
        assert float(np.linalg.eigvalsh(c + d)[-1]) > 1.0 + DEFAULT_TOL.compat


def test_projection_criterion_fixtures():
    p = np.diag([1.0, 0.0])
    assert projection_compat_equiv(p, np.diag([0.3, 0.8])) == (True, True)
    q = 0.5 * np.ones((2, 2))
    assert projection_compat_equiv(p, q) == (False, False)
    assert projection_compat_equiv(np.zeros((2, 2)), np.diag([0.3, 0.8])) == (True, True)


def test_projection_criterion_random():
    for i in range(30):
        n = (2, 4, 8)[i % 3]
        p, a = _commuting_projection_effects(n, derive_seed(51, i), 0.1)
        lhs, rhs = projection_compat_equiv(p, a)
        assert lhs == rhs

        p2 = random_projection(n, 1 + i % (n - 1) if n > 2 else 1, derive_seed(52, i))
        a2 = _strict_effects(n, derive_seed(53, i), 0.1)
        lhs, rhs = projection_compat_equiv(p2, a2)
        assert lhs == rhs


def test_five_block_diagonal_example():
    a = np.diag([1.0, 0.3]).astype(complex)
    b = np.diag([0.7, 1.0]).astype(complex)
    fb = five_block_decompose(a, b)
    proj = fb.projections()
    assert np.allclose(proj["unit_a"], np.diag([1.0, 0.0]))
    assert np.allclose(proj["unit_b"], np.diag([0.0, 1.0]))
    for name in ("strict", "null_a", "null_b"):
        assert op_norm(proj[name]) == 0.0


def test_five_block_tie_break():
    # a = I, b = 0: everything lands in the earliest eligible block
    fb = five_block_decompose(np.eye(3), np.zeros((3, 3)))
    assert fb.ranks() == {"unit_a": 3, "unit_b": 0, "strict": 0, "null_a": 0, "null_b": 0}


def test_five_block_strict_pair():
    a, b = random_abscompat_pair(2, 61)
    fb = five_block_decompose(a, b)
    assert fb.ranks()["strict"] == 2
    assert sum(fb.ranks().values()) == 2


def test_five_block_assembled():
    for i in range(12):
        seed = derive_seed(71, i)
        sa, sb = random_abscompat_pair(4, seed)
        gen = np.random.Generator(np.random.Philox(key=seed))
        a = np.zeros((8, 8), dtype=complex)
        b = np.zeros_like(a)
        a[:4, :4], b[:4, :4] = sa, sb
        a[4, 4], b[4, 4] = 1.0, gen.random()          # a-unit slot
        a[5, 5], b[5, 5] = gen.random() * 0.8 + 0.1, 1.0  # b-unit slot
        a[6, 6], b[6, 6] = 0.0, gen.random() * 0.8 + 0.1  # a-null slot
        a[7, 7], b[7, 7] = gen.random() * 0.8 + 0.1, 0.0  # b-null slot
        u = haar_unitary(8, derive_seed(72, i))
        a = hermitize(u @ a @ dagger(u))
        b = hermitize(u @ b @ dagger(u))

        fb = five_block_decompose(a, b)
        assert fb.ranks() == {"unit_a": 1, "unit_b": 1, "strict": 4, "null_a": 1, "null_b": 1}
        # unit_a is the eigenspace of a at 1, from 1 - tol.spec up
        vals, vecs = np.linalg.eigh(a)
        v = vecs[:, vals >= 1.0 - DEFAULT_TOL.spec]
        assert op_norm(hermitize(v @ dagger(v)) - fb.projections()["unit_a"]) <= DEFAULT_TOL.proj

        proj = fb.projections()
        total = sum(proj.values())
        assert op_norm(total - np.eye(8)) <= DEFAULT_TOL.proj
        for name in BLOCK_NAMES:
            p = proj[name]
            assert op_norm(p @ p - p) <= DEFAULT_TOL.proj
            assert op_norm(p @ a - a @ p) <= DEFAULT_TOL.block
            assert op_norm(p @ b - b @ p) <= DEFAULT_TOL.block


@pytest.mark.parametrize("slots", [(1, 1, 1, 1), (0, 2, 0, 1), (0, 0, 0, 0)])
def test_reduced_blocks_are_the_index_grid_compressions(slots):
    """Each block owns a contiguous range of the bases side by side, so the
    compression of x to it is its slice of V*(xV), bit for bit the grid
    the block's mask picks out, empty blocks included."""
    a, b = random_abscompat_pair(4, derive_seed(73, sum(slots)))
    dim = 4 + sum(slots)
    big_a, big_b = np.zeros((dim, dim), dtype=complex), np.zeros((dim, dim), dtype=complex)
    big_a[:4, :4], big_b[:4, :4] = a, b
    diag = np.arange(4, dim)
    big_a[diag, diag], big_b[diag, diag] = np.repeat([(1.0, 0.5), (0.5, 1.0), (0.0, 0.5), (0.5, 0.0)],
                                                     slots, axis=0).T
    u = haar_unitary(dim, derive_seed(74, dim))
    big_a, big_b = hermitize(u @ big_a @ dagger(u)), hermitize(u @ big_b @ dagger(u))
    fb = five_block_decompose(big_a, big_b)
    bases = fb.bases
    v = np.hstack(list(bases.values()))
    owner = np.repeat(np.arange(len(bases)), [w.shape[1] for w in bases.values()])
    for got, x in zip((fb.blocks_a, fb.blocks_b), (big_a, big_b)):
        m = hermitize(dagger(v) @ (x @ v))
        for k, name in enumerate(bases):
            want = m[np.ix_(owner == k, owner == k)]
            assert got[name].shape == want.shape and got[name].tobytes() == want.tobytes(), name
    assert [w.shape[1] for w in bases.values()] == [slots[0], slots[1], 4, slots[2], slots[3]]


def test_five_block_rejects_incompatible():
    with pytest.raises(NotAbsolutelyCompatible):
        five_block_decompose(0.5 * np.eye(2), 0.5 * np.eye(2))


def test_report_serialization():
    a, b = random_abscompat_pair(4, 81)
    fb = five_block_decompose(a, b)
    blob = fb.to_json()
    assert set(blob["projections"]) == set(BLOCK_NAMES)
    assert set(blob["blocks"]) == {"a", "b"}
