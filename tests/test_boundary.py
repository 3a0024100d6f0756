"""The public boundary: inputs in any memory layout, and the number of
factorizations one call makes."""

import numpy as np
import pytest

from abscompat import DEFAULT_TOL
from abscompat.canonical import canonicalize
from abscompat.compat import five_block_decompose, is_abs_compatible
from abscompat.generate import (
    derive_seed,
    haar_unitary,
    random_abscompat_pair,
    random_pair_spec,
)
from abscompat.geometry import decompose_pair_m2, pair_from_projections
from abscompat.hermitian import dagger, hermitize


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


def _assembled_pair(seed):
    """A strict 4x4 pair beside one a-unit, b-unit, a-null and b-null slot."""
    sa, sb = random_abscompat_pair(4, derive_seed(seed, 1))
    a = np.zeros((8, 8), dtype=complex)
    b = np.zeros_like(a)
    a[:4, :4], b[:4, :4] = sa, sb
    a[4:, 4:] = np.diag([1.0, 0.3, 0.0, 0.6])
    b[4:, 4:] = np.diag([0.5, 1.0, 0.7, 0.0])
    u = haar_unitary(8, derive_seed(seed, 2))
    return hermitize(u @ a @ dagger(u)), hermitize(u @ b @ dagger(u))


# numpy.linalg calls of one call at n = 8:
#  - is_abs_compatible: one eigvalsh per operand to validate it, one eigh
#    each of a-b and 1-a-b, one eigvalsh for the norm of the residual;
#  - canonicalize: the same five, one eigh of |a-b| on the positive half
#    of 1-a-b, one svd for the polar factor of the cross block, and one
#    eigvalsh per reconstruction residual;
#  - five_block_decompose: the same five, four eigh for the four
#    compressions, one eigvalsh each for ||V*V - I|| and the two
#    off-block masses, four for the unit and null block contents, two for
#    the strictness of the strict block and three for its residual (empty
#    blocks take none, so the pair has all five).
BUDGET = {
    "is_abs_compatible": {"eigh": 2, "eigvalsh": 3, "svd": 0},
    "canonicalize": {"eigh": 3, "eigvalsh": 5, "svd": 1},
    "five_block_decompose": {"eigh": 8, "eigvalsh": 13, "svd": 0},
}


def test_factorization_budget(monkeypatch):
    a, b = random_abscompat_pair(8, derive_seed(5, 0))
    c, d = _assembled_pair(derive_seed(5, 1))
    calls = {
        "is_abs_compatible": lambda: is_abs_compatible(a, b),
        "canonicalize": lambda: canonicalize(a, b),
        "five_block_decompose": lambda: five_block_decompose(c, d),
    }
    counts = dict.fromkeys(("eigh", "eigvalsh", "svd"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    norm = np.linalg.norm

    def norm_counted(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:  # the spectral norm of a matrix is an svd
            counts["svd"] += 1
        return norm(x, ord, *args, **kwargs)

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "norm", norm_counted)

    for label, call in calls.items():
        counts.update(dict.fromkeys(counts, 0))
        call()
        over = {k: v for k, v in counts.items() if v > BUDGET[label][k]}
        assert not over, "%s made %r, over its budget %r" % (label, counts, BUDGET[label])
