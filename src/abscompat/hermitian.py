"""Hermitian building blocks: eigendecomposition, functional calculus,
support/null/range projections, polar decomposition, strictness tests.

All inputs are plain complex numpy arrays; all functions are pure.  An
"effect" is a Hermitian matrix with spectrum in [0, 1]; an effect is
"strict" when its spectrum also avoids 0 and 1.

Stacks.  The spectral core works over leading axes: ``as_matrix`` and
``require_hermitian`` (with ``stack=True``), ``op_norm``, ``_hnorm``,
``_compose`` and ``_require_unit_interval`` treat each matrix of a
``(..., n, n)`` stack on its own, and a 2-D input is a batch of one, not
a second path: norms are a float for one matrix and an array for a
stack.  A stacked factorization gives each matrix the bits it gets
alone.  Stacks pay where a numpy.linalg call's ~10 us overhead is most
of its cost, at small n; at n ~ 100 copying matrices into a stack costs
more than the call it saves, and numpy's stacked matmul is about
twice as slow as the same products made one by one.  So _factor_each
stacks factorizations up to _STACK_N, and products are stacked only for
small matrices.  Public entry points take one matrix per operand.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    AbscompatError,
    DimensionMismatch,
    DomainError,
    NegativeSpectrum,
    NotHermitian,
    NotProjection,
    NotStrict,
    NotUnitary,
)


# rounding allowance per unit of dimension for bounds that certify a decision
_ROUNDING = 1e3 * float(np.finfo(float).eps)

# Largest n whose matrices share one numpy.linalg call.  Measured against
# one call each, for two matrices: a stacked eigh or eigvalsh is 5-20%
# faster up to n = 32, about even at n = 48-64 and 4-5% slower at n = 96.
_STACK_N = 32


def as_matrix(x, stack: bool = False) -> np.ndarray:
    """x as a finite complex square matrix, or with stack=True as a
    (..., n, n) stack of them."""
    try:
        x = np.asarray(x, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError("expected a numeric matrix: %s" % exc) from exc
    if x.ndim < 2 or (x.ndim > 2 and not stack) or x.shape[-1] != x.shape[-2]:
        raise DimensionMismatch("expected a square matrix, got shape %r" % (x.shape,))
    if not np.isfinite(x).all():
        raise DomainError("matrix has non-finite entries")
    return x


def dagger(x) -> np.ndarray:
    return np.conj(np.asarray(x).swapaxes(-1, -2))


def hermitize(x) -> np.ndarray:
    return 0.5 * (x + dagger(x))


def _per_matrix(values):
    """One value per matrix: a float for one matrix, else the array."""
    return float(values) if values.ndim == 0 else values


def op_norm(x):
    """Operator (spectral) norm of a finite square matrix, or of each of a
    (..., n, n) stack, 0 for empty matrices: a float for one matrix, an
    array for a stack."""
    x = as_matrix(x, stack=True)
    if x.size == 0:
        return _per_matrix(np.zeros(x.shape[:-2]))
    # what np.linalg.norm(x, 2) computes, without its axis handling
    return _per_matrix(np.linalg.svd(x, compute_uv=False).max(axis=-1))


def _hnorm(h):
    """Operator norm of a Hermitian matrix, its largest |eigenvalue|, over
    the last two axes: a float for one matrix, an array for a stack."""
    if h.size == 0:
        return _per_matrix(np.zeros(h.shape[:-2]))
    return _per_matrix(np.abs(np.linalg.eigvalsh(h)).max(axis=-1))


def _vnorm(v):
    """Euclidean norm along the last axis, bit for bit what
    np.linalg.norm gives each vector: both reduce with the BLAS dot."""
    if np.iscomplexobj(v):
        return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    return np.sqrt(np.vecdot(v, v))


def _fnorm(h) -> float:
    """Frobenius norm: the l2 norm of all singular values, so never below
    the operator norm, their largest."""
    return float(np.sqrt(np.vdot(h, h).real))


def _hnorm_upto(h, bound: float) -> float:
    """||h||_F when that is at most bound, else the exact _hnorm(h).

    For norms that are only compared with bound: ||h|| <= ||h||_F, so a
    Frobenius norm within the bound settles `||h|| <= bound` without a
    factorization, and a norm over the bound is always the exact one, so
    failure messages report exact values.
    """
    frob = _fnorm(h)
    if frob <= bound:
        return frob
    # an h that overflowed has no finite norm to report, and fails every bound
    return _hnorm(h) if np.isfinite(h).all() else float("inf")


def _hnorm_within(h, bound: float) -> bool:
    """Whether ||h|| <= bound for a Hermitian n x n h.

    ||h||_F / sqrt(n) <= ||h|| <= ||h||_F, as h has at most n eigenvalues,
    so a Frobenius norm within the bound settles the test one way and one
    above sqrt(n) times the bound, less a rounding allowance of
    _ROUNDING * n, the other way; only a Frobenius norm between the two
    takes the exact _hnorm(h).
    """
    n = h.shape[-1]
    frob = _fnorm(h)
    if frob <= bound:
        return True
    if frob > bound * np.sqrt(n) * (1.0 + _ROUNDING * n):
        return False
    return _hnorm(h) <= bound


def identity_like(x) -> np.ndarray:
    return np.eye(x.shape[-1], dtype=complex)


def require_hermitian(x, tol: Tolerances = DEFAULT_TOL, stack: bool = False) -> np.ndarray:
    """x made exactly Hermitian, once its asymmetry is within tol.herm;
    with stack=True, each matrix of a (..., n, n) stack."""
    x = as_matrix(x, stack)
    dev = float(np.abs(x - dagger(x)).max()) if x.size else 0.0
    if dev > tol.herm:
        raise NotHermitian("max deviation from self-adjointness %.3e > %.3e" % (dev, tol.herm))
    return hermitize(x)


def require_unitary(u, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    u = as_matrix(u)
    dev = _hnorm_upto(dagger(u) @ u - identity_like(u), tol.unit)
    if dev > tol.unit:
        raise NotUnitary("||U*U - I|| = %.3e > %.3e" % (dev, tol.unit))
    return u


def require_projection(p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    p = require_hermitian(p, tol)
    dev = _hnorm_upto(p @ p - p, tol.proj)
    if dev > tol.proj:
        raise NotProjection("||P^2 - P|| = %.3e > %.3e" % (dev, tol.proj))
    return p


def _require_unit_interval(vals, tol: Tolerances) -> None:
    """Ascending spectra, one per row over leading axes, inside [0, 1]
    within tol.spec; an error reports the extreme eigenvalue of them all."""
    if vals.size == 0:
        return
    low, high = vals[..., 0], vals[..., -1]
    if vals.ndim > 1:
        low, high = low.min(), high.max()
    if low < -tol.spec:
        raise NegativeSpectrum("smallest eigenvalue %.3e < -%.3e" % (low, tol.spec))
    if high > 1.0 + tol.spec:
        raise DomainError("largest eigenvalue %.3e exceeds 1" % high)


def _effect(a, tol: Tolerances):
    """The validated effect a and its ascending spectrum (eigvalsh)."""
    a = require_hermitian(a, tol)
    vals = np.linalg.eigvalsh(a)
    _require_unit_interval(vals, tol)
    return a, vals


def require_effect(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Check 0 <= a <= 1 on the spectrum (within tol.spec)."""
    return _effect(a, tol)[0]


def _hermitian_pair(a, b, tol: Tolerances):
    """Both operands through require_hermitian; when b fails, the spectrum
    of a is checked first, as _effects checks a before b."""
    a = require_hermitian(a, tol)
    try:
        b = require_hermitian(b, tol)
    except AbscompatError:
        _effect(a, tol)
        raise
    return a, b


def _factor_each(fn, *mats) -> list:
    """fn, a numpy.linalg function, of each of the same-shape mats: one
    call on their stack up to _STACK_N, one call each above it.  Either
    way each matrix gets the bits it gets alone."""
    if mats[0].shape[-1] > _STACK_N:
        return [fn(x) for x in mats]
    out = fn(np.array(mats))
    return list(zip(*out)) if isinstance(out, tuple) else list(out)


def _effects(a, b, tol: Tolerances):
    """Both validated effects with their spectra, ((a, vals), (b, vals)),
    from one eigvalsh of the stack [a, b] (_factor_each).  Errors come in
    the order of validating a, then b, then comparing shapes."""
    a, b = _hermitian_pair(a, b, tol)
    if a.shape != b.shape:
        _effect(a, tol)
        _effect(b, tol)
        raise DimensionMismatch("effects of shapes %r and %r" % (a.shape, b.shape))
    va, vb = _factor_each(np.linalg.eigvalsh, a, b)
    _require_unit_interval(va, tol)
    _require_unit_interval(vb, tol)
    return (a, va), (b, vb)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending, eigenvectors as unitary columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, f) -> np.ndarray:
        return _compose(_apply_scalar(f, self.eigenvalues), self.eigenvectors)

    def reconstruct(self) -> np.ndarray:
        return self.apply(lambda t: t)

    def projection_where(self, mask) -> np.ndarray:
        """Orthogonal projection onto the span of the selected eigenvectors."""
        v = self.eigenvectors[:, np.asarray(mask, dtype=bool)]
        return hermitize(v @ dagger(v))


def _eig(h) -> SpectralDecomposition:
    return SpectralDecomposition(*np.linalg.eigh(h))


def eig_hermitian(h, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    return _eig(require_hermitian(h, tol))


def _compose(vals, vecs) -> np.ndarray:
    """V diag(vals) V*, Hermitian for real vals, over leading axes."""
    return hermitize((vecs * vals[..., None, :]) @ dagger(vecs))


def _apply_scalar(f, vals):
    out = np.empty(len(vals), dtype=float)
    for i, t in enumerate(vals):
        try:
            with np.errstate(all="ignore"):
                y = f(float(t))
        except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
            raise DomainError("function undefined at eigenvalue %r: %s" % (t, exc)) from exc
        y = float(y)
        if not np.isfinite(y):
            raise DomainError("function not finite at eigenvalue %r" % t)
        out[i] = y
    return out


def matrix_function(h, f, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian functional calculus: V diag(f(lambda)) V*."""
    return eig_hermitian(h, tol).apply(f)


def absolute_value(x, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """|x| = (x* x)^(1/2).

    Hermitian inputs go through their own eigendecomposition (one spectral
    factorization, no squaring), everything else through the SVD.
    """
    x = as_matrix(x)
    if x.size == 0:
        return x.copy()
    if float(np.max(np.abs(x - dagger(x)))) <= tol.herm:
        vals, vecs = np.linalg.eigh(hermitize(x))
        return _compose(np.abs(vals), vecs)
    _, s, vh = np.linalg.svd(x)
    return _compose(s, dagger(vh))


def _effect_eig(a, tol: Tolerances) -> SpectralDecomposition:
    """The eigendecomposition of the effect a, validated from its own
    eigenvalues with the errors of _effect."""
    dec = _eig(require_hermitian(a, tol))
    _require_unit_interval(dec.eigenvalues, tol)
    return dec


def support_projection(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Largest projection below the effect a: its eigenvalue-1 eigenspace."""
    dec = _effect_eig(a, tol)
    return dec.projection_where(dec.eigenvalues >= 1.0 - tol.spec)


def null_projection(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Largest projection annihilating the effect a: its kernel."""
    dec = _effect_eig(a, tol)
    return dec.projection_where(dec.eigenvalues <= tol.spec)


def range_projection(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    a = require_hermitian(a, tol)
    if a.size == 0:
        return a.copy()
    dec = _eig(a)
    scale = max(1.0, float(np.max(np.abs(dec.eigenvalues))))
    if dec.eigenvalues[0] < -tol.spec * scale:
        raise NegativeSpectrum(
            "range projection needs a positive input, min eigenvalue %.3e" % dec.eigenvalues[0]
        )
    return dec.projection_where(dec.eigenvalues > tol.spec * scale)


@dataclass(frozen=True)
class StrictnessReport:
    strict: bool
    support_rank: int
    null_rank: int
    spectrum_min: float
    spectrum_max: float

    def __bool__(self) -> bool:
        return self.strict


def _strictness(vals, tol: Tolerances) -> StrictnessReport:
    """Strictness report from the spectrum of |x| (or of an effect x)."""
    vals = np.abs(vals)
    if vals.size == 0:
        return StrictnessReport(True, 0, 0, float("nan"), float("nan"))
    support = int(np.count_nonzero(vals >= 1.0 - tol.spec))
    null = int(np.count_nonzero(vals <= tol.spec))
    return StrictnessReport(support == 0 and null == 0, support, null,
                            float(vals.min()), float(vals.max()))


def _require_strict(va, vb, tol: Tolerances) -> None:
    """Strictness of two validated effects, read off their spectra."""
    if not _strictness(va, tol):
        raise NotStrict("first effect is not strict")
    if not _strictness(vb, tol):
        raise NotStrict("second effect is not strict")


def is_strict(x, tol: Tolerances = DEFAULT_TOL) -> StrictnessReport:
    """Spectrum of |x| inside (0, 1), both endpoints excluded.

    The spectrum of |x| is the set of singular values of x.  The report
    carries the ranks of the offending eigenspaces at 1 (support) and 0
    (null).
    """
    return _strictness(np.linalg.svd(as_matrix(x), compute_uv=False), tol)


def polar_unitary(x, tol: Tolerances = DEFAULT_TOL):
    """Unitary polar factor: x = u |x| with u unitary.

    For singular x the SVD supplies the kernel-to-cokernel completion;
    x = 0 returns (I, 0).
    """
    x = as_matrix(x)
    if x.size == 0:
        return x.copy(), x.copy()
    u, s, vh = np.linalg.svd(x)
    w = u @ vh
    mod = _compose(s, dagger(vh))
    return w, mod


def jordan_product(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch("jordan product needs equal shapes, got %r and %r" % (a.shape, b.shape))
    return 0.5 * (a @ b + b @ a)


def commutator_norm(a, b) -> float:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch("commutator needs equal shapes, got %r and %r" % (a.shape, b.shape))
    return op_norm(a @ b - b @ a)


def cluster_indices(vals, gap: float):
    """Group ascending values into clusters split at gaps larger than gap."""
    vals = np.asarray(vals, dtype=float)
    if len(vals) == 0:
        return []
    cuts = np.nonzero(np.diff(vals) > gap)[0]
    return [np.arange(a, b) for a, b in zip(np.r_[0, cuts + 1], np.r_[cuts + 1, len(vals)])]

