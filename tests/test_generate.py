import numpy as np
import pytest

from abscompat import DEFAULT_TOL, generate
from abscompat.compat import is_abs_compatible, is_orthogonal
from abscompat.errors import BadMargin, DegenerateSpec, OddDimension
from abscompat.generate import (
    _commuting_projection_effects,
    _strict_effects,
    derive_seed,
    haar_unitary,
    random_abscompat_pair,
    random_commuting_strict_pair,
    random_orthogonal_pair,
    random_pair_spec,
    random_projection,
    random_rank_one_projection,
    random_spheroid_partners,
    random_strict_projection_params,
    random_strict_unitary_params,
)
from abscompat.canonical import is_strict_projection, strict_projection_from_params
from abscompat.geometry import pair_from_projections
from abscompat.hermitian import dagger, is_strict, op_norm


def test_derive_seed():
    assert derive_seed(0, 0) == 0
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_haar_unitary():
    u = haar_unitary(4, 7)
    assert op_norm(dagger(u) @ u - np.eye(4)) <= 1e-12
    assert np.array_equal(u, haar_unitary(4, 7))
    assert not np.array_equal(u, haar_unitary(4, 8))

    phase = haar_unitary(1, 3)
    assert abs(abs(phase[0, 0]) - 1.0) <= 1e-12


def test_strict_effect():
    for i in range(10):
        a = _strict_effects(5, derive_seed(13, i), 0.1)
        vals = np.linalg.eigvalsh(a)
        assert vals[0] >= 0.1 - 1e-12 and vals[-1] <= 0.9 + 1e-12
        assert is_strict(a)


def test_commuting_strict_pair():
    for i in range(10):
        a, b = random_commuting_strict_pair(3, derive_seed(23, i))
        assert op_norm(a @ b - b @ a) == 0.0
        assert is_strict(a) and is_strict(b)
        s = a @ a + b @ b
        vals = np.linalg.eigvalsh(s)
        assert vals[-1] <= 1.0 and vals[0] > 0.0
    a, b = random_commuting_strict_pair(1, 5)
    assert a.shape == (1, 1)
    with pytest.raises(BadMargin):
        random_commuting_strict_pair(4, 0, margin=0.6)


def test_abscompat_pair():
    for i in range(10):
        n = (2, 4, 8)[i % 3]
        a, b = random_abscompat_pair(n, derive_seed(33, i))
        assert is_abs_compatible(a, b).residual <= DEFAULT_TOL.compat
        assert is_strict(a) and is_strict(b)
    with pytest.raises(OddDimension):
        random_abscompat_pair(3, 0)


def test_strict_param_generators():
    p = random_strict_projection_params(3, 17)
    assert is_strict_projection(strict_projection_from_params(p))
    q = random_strict_unitary_params(3, 18)
    assert p.m == q.m == 3
    assert np.all((q.a0 > 0) & (q.a0 < 1))
    assert np.allclose(np.abs(q.w1), 1.0)


def test_commuting_projection_effect():
    for i in range(8):
        p, a = _commuting_projection_effects(4, derive_seed(43, i), 0.1)
        assert op_norm(p @ p - p) <= 1e-12
        assert op_norm(p @ a - a @ p) <= 1e-13
        assert is_strict(a)


def test_random_projection():
    p = random_projection(5, 2, 9)
    assert op_norm(p @ p - p) <= 1e-12
    assert abs(np.trace(p).real - 2.0) <= 1e-12
    r1 = random_rank_one_projection(11)
    assert abs(np.trace(r1).real - 1.0) <= 1e-12


def test_pair_spec(monkeypatch):
    for i in range(10):
        pivot, target, index = random_pair_spec(derive_seed(53, i))
        a, b = pair_from_projections(pivot, target, index)  # validates everything
        assert 0.0 < index < 1.0
        random_spheroid_partners(a, 1, 0)  # raises outside the punctured ball
    # no rank-one target is farther than 1/sqrt(2) from both the pivot and its
    # complement, and just below that almost none is: the draws run out
    monkeypatch.setattr(generate, "_SEPARATION", np.sqrt(0.5) - 1e-12)
    with pytest.raises(DegenerateSpec, match="^could not separate the projections$"):
        random_pair_spec(53)


def test_orthogonal_pair():
    for i in range(10):
        a, b = random_orthogonal_pair(4, derive_seed(63, i))
        assert is_orthogonal(a, b)
        assert float(np.linalg.eigvalsh(a + b)[-1]) <= 1.0 + 1e-12


def test_spheroid_partners():
    a, _ = pair_from_projections(
        np.diag([0.0, 1.0]).astype(complex), 0.5 * np.ones((2, 2)), 0.5
    )
    partners = random_spheroid_partners(a, 6, 73)
    assert len(partners) == 6
    for x in partners:
        assert is_abs_compatible(a, x).residual <= DEFAULT_TOL.compat


def test_generators_are_pure():
    pairs1 = random_abscompat_pair(4, 1234)
    pairs2 = random_abscompat_pair(4, 1234)
    assert np.array_equal(pairs1[0], pairs2[0])
    assert np.array_equal(pairs1[1], pairs2[1])
