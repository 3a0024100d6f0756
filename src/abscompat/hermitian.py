"""Hermitian building blocks: eigendecomposition, functional calculus,
support/null/range projections, polar decomposition, strictness tests.

All inputs are plain complex numpy arrays; all functions are pure.  An
"effect" is a Hermitian matrix with spectrum in [0, 1]; an effect is
"strict" when its spectrum also avoids 0 and 1.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    DimensionMismatch,
    DomainError,
    NegativeSpectrum,
    NotHermitian,
    NotProjection,
    NotStrict,
    NotUnitary,
)


def as_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatch("expected a square matrix, got shape %r" % (x.shape,))
    if not np.isfinite(x).all():
        raise DomainError("matrix has non-finite entries")
    return x


def dagger(x) -> np.ndarray:
    return np.conj(np.swapaxes(x, -1, -2))


def hermitize(x) -> np.ndarray:
    return 0.5 * (x + dagger(x))


def op_norm(x) -> float:
    """Operator (spectral) norm; 0.0 for empty matrices."""
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, 2))


def _hnorm(h) -> float:
    """Operator norm of a Hermitian matrix: its largest |eigenvalue|."""
    if h.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


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
    return frob if frob <= bound else _hnorm(h)


def identity_like(x) -> np.ndarray:
    return np.eye(x.shape[0], dtype=complex)


def require_hermitian(x, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    x = as_matrix(x)
    dev = float(np.max(np.abs(x - dagger(x)))) if x.size else 0.0
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
    """An ascending spectrum inside [0, 1], within tol.spec."""
    if vals.size and vals[0] < -tol.spec:
        raise NegativeSpectrum("smallest eigenvalue %.3e < -%.3e" % (vals[0], tol.spec))
    if vals.size and vals[-1] > 1.0 + tol.spec:
        raise DomainError("largest eigenvalue %.6f exceeds 1" % vals[-1])


def _effect(a, tol: Tolerances):
    """The validated effect a and its ascending spectrum (eigvalsh)."""
    a = require_hermitian(a, tol)
    vals = np.linalg.eigvalsh(a)
    _require_unit_interval(vals, tol)
    return a, vals


def require_effect(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Check 0 <= a <= 1 on the spectrum (within tol.spec)."""
    return _effect(a, tol)[0]


def _effects(a, b, tol: Tolerances):
    """Both validated effects with their spectra, ((a, vals), (b, vals))."""
    a, b = _effect(a, tol), _effect(b, tol)
    if a[0].shape != b[0].shape:
        raise DimensionMismatch("effects of shapes %r and %r" % (a[0].shape, b[0].shape))
    return a, b


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
    """V diag(vals) V*, Hermitian for real vals."""
    return hermitize((vecs * vals) @ dagger(vecs))


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
                            float(np.min(vals)), float(np.max(vals)))


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

