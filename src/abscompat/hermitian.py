"""Hermitian building blocks: validation, norms, spectral composition
and projections, strictness tests.

All inputs are plain complex numpy arrays; all functions are pure.  An
"effect" is a Hermitian matrix with spectrum in [0, 1]; an effect is
"strict" when its spectrum also avoids 0 and 1.

Stacks.  The spectral core works over leading axes: ``op_norm``,
``_hnorm``, ``_effects``, ``_compose`` and ``_require_unit_interval``
treat each matrix of a ``(..., n, n)`` stack on its own, and a 2-D input
is a batch of one, not a second path: norms are a float for one matrix
and an array for a stack.  A stacked factorization gives each matrix the
bits it gets alone, and no choice is made by size: separate operands of
one shape, such as a and b, share one eigvalsh as a stack, and a stack
that a caller passes goes to each numpy call whole, at every n.  On a
2-core host with one BLAS thread, a stacked eigvalsh of two operands
took 0.64-0.95x the time of two calls at n = 2 and 0.97-1.06x from
n = 32 to 256.  Products are not stacked: there, a stacked product of
two n = 96 matrices took 1.5-1.6x two lone ones.  The compatibility
check, the dilation, the site-block maps and the dimension-2 entry
points take stacks too, and run each stack in one pass, never element
by element.  Raw input is validated once, at an entry point, by
as_matrix, require_hermitian, _hermitian_pair, _effect, _projection or
_unitary: stack=True admits a stack, and _unitary, or _projection with
sites=True, takes site blocks (_over_sites).  The private cores take
the arrays they return.

One strictness cut: a value is at 1 from 1 - tol.spec up and at 0 up
to tol.spec in every such decision of the package, for kernels and
eigenspaces at 1, strict spectra, strict unitaries and projections, a
canonical form's x0 and the gates of dilate_commuting_pair.  _levels
masks the values at a level; the strictness gates (_strict_rows and
those of the canonical module) test the open interval between them.

One gate: every check of a computed value against a tolerance or a
domain bound, here and in compat.py, canonical.py and geometry.py,
raises through _require.  It fails a NaN and builds its message from
the first failing element of a stack in C order, so each stacked check,
require_hermitian's included, reports what its first failing element
reports alone.  A stack thus raises at the first check that any element
fails, with that check's error for the first such element: one failing
element raises what it raises alone, and an argument that does not
stack into one array raises the DomainError of as_matrix.  Type and
shape checks raise where they stand.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    AbscompatError,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    NegativeSpectrum,
    NotHermitian,
    NotProjection,
    NotStrict,
    NotUnitary,
)


# rounding allowance per unit of dimension for bounds that certify a decision
_ROUNDING = 1e3 * float(np.finfo(float).eps)


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


def _vector(x, dtype, label: str) -> np.ndarray:
    """x as a numeric array of dtype, a number as a vector of one."""
    try:
        return np.atleast_1d(np.asarray(x, dtype=dtype))
    except (TypeError, ValueError) as exc:
        raise DomainError("%s must be numeric: %s" % (label, exc)) from exc


def _record(value, cls, label: str) -> None:
    """Raises DomainError unless value, the argument label, is an
    instance of the record class cls."""
    if not isinstance(value, cls):
        raise DomainError("%s must be %s, got %s" % (label, cls.__name__, type(value).__name__))


def _two_by_two(x00, x01, x10, x11) -> np.ndarray:
    """The complex 2x2 matrices [[x00, x01], [x10, x11]] over the leading
    axes of the four same-shape entries."""
    out = np.empty(np.shape(x00) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = x00, x01
    out[..., 1, 0], out[..., 1, 1] = x10, x11
    return out


def _mixed_pair(lam, base, first, second):
    """((1-lam) base + lam first, (1-lam) base + lam second): the M2 pair
    of index lam with pivot base, for matrices or chart points alike."""
    rest = 1.0 - lam
    return rest * base + lam * first, rest * base + lam * second


def _per_matrix(values):
    """One value per matrix: a Python scalar for one matrix, else the array."""
    return values.item() if values.ndim == 0 else values


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


def _fnorm(h):
    """Frobenius norm over the last two axes: the l2 norm of all singular
    values, so never below the operator norm, their largest.  A float for
    one matrix, else an array; vecdot reduces with the BLAS dot that
    np.vdot uses, so each norm has the bits np.vdot gives it."""
    flat = h.reshape(h.shape[:-2] + (h.shape[-2] * h.shape[-1],))
    return _per_matrix(np.sqrt(np.vecdot(flat, flat).real))


def _hnorm_upto(h, bound: float):
    """||h||_F when that is at most bound, else the exact _hnorm(h), for
    each matrix over leading axes.

    For norms that are only compared with bound: ||h|| <= ||h||_F, so a
    Frobenius norm within the bound settles `||h|| <= bound` without a
    factorization, and a norm over the bound is always the exact one, so
    failure messages report exact values.
    """
    frob = _fnorm(h)
    if np.all(frob <= bound):
        return frob
    # an h that overflowed has no finite norm to report, and fails every bound
    finite = np.isfinite(h).all(axis=(-2, -1), keepdims=True)
    exact = np.where(finite[..., 0, 0], _hnorm(np.where(finite, h, 0.0)), np.inf)
    return _per_matrix(np.where(frob <= bound, frob, exact))


def _hnorm_beyond(h, bound: float):
    """Whether ||h|| > bound for a Hermitian n x n h, or for each of a
    stack of them; a NaN norm is not beyond it.

    ||h||_F / sqrt(n) <= ||h|| <= ||h||_F, as h has at most n eigenvalues,
    so a Frobenius norm above sqrt(n) times the bound settles the test
    one way and one within the bound the other way, each less a rounding
    allowance of _ROUNDING * n: a rank-one h has ||h||_F = ||h|| up to
    rounding.  Only a Frobenius norm between the two cuts takes the exact
    _hnorm of that h alone, not of the whole stack.
    """
    n = h.shape[-1]
    frob = _fnorm(h)
    beyond = np.array(frob > bound * np.sqrt(n) * (1.0 + _ROUNDING * n))
    undecided = (frob > bound * (1.0 - _ROUNDING * n)) & ~beyond
    if np.any(undecided):
        beyond[undecided] = _hnorm(h[undecided]) > bound
    return beyond


def _require(ok, error, message: str, *values) -> None:
    """Raises error(message % values) unless ok holds everywhere: the one
    gate of every check of a computed value against a bound.

    ok is a bool or a mask over leading axes, a comparison that a NaN
    fails (`value <= bound`, `low < value`), never a negated one.  The
    message reads each value at the first element, in C order, where ok
    fails: a value whose shape starts with ok's is read there, any other
    belongs to every element.  What it reads becomes a Python float, list
    or str, so a stack's message is the one its first offender raises
    alone, and a stacked entry point, which runs every check over the
    whole stack, raises at the first check that any element fails.
    """
    if np.all(ok):
        return
    lead = np.shape(ok)
    at = np.unravel_index(np.argmin(ok), lead)
    read = (np.asarray(v)[at] if np.shape(v)[:len(lead)] == lead else np.asarray(v) for v in values)
    raise error(message % tuple(v.tolist() for v in read))


def identity_like(x) -> np.ndarray:
    return np.eye(x.shape[-1], dtype=complex)


def _over_sites(values, sites: bool):
    """values, one per matrix; with sites=True, one per site of the
    (..., m, 2, 2) site blocks of matrices with exact zeros off their
    sites, and then the largest per matrix.  Such a matrix, and every sum
    and product of such matrices, is a direct sum of its sites, so its
    largest entry modulus and its operator norm are the largest of its
    sites'.  A norm that _hnorm_upto took Frobenius-first per site keeps
    its meaning: the largest is within the bound when every site's is,
    and exact where it is not, as no site within the bound exceeds it."""
    return np.max(values, axis=-1) if sites else values


def require_hermitian(x, tol: Tolerances = DEFAULT_TOL, stack: bool = False) -> np.ndarray:
    """x made exactly Hermitian, once its asymmetry is within tol.herm;
    with stack=True, each matrix of a (..., n, n) stack."""
    return _hermitian(as_matrix(x, stack), tol)


def _hermitian(x, tol: Tolerances, sites: bool = False) -> np.ndarray:
    """require_hermitian of a finite x; with sites=True, of the matrices
    of the site blocks x, checked on their sites (_over_sites)."""
    dev = _over_sites(np.abs(x - dagger(x)).max(axis=(-2, -1), initial=0.0), sites)
    _require(dev <= tol.herm, NotHermitian, "max deviation from self-adjointness %.3e > %.3e", dev, tol.herm)
    return hermitize(x)


def _unitary(u, tol: Tolerances) -> np.ndarray:
    """The (..., m, 2, 2) site blocks u once U*U is within tol.unit of I
    for each matrix U they hold, checked on its sites (_over_sites)."""
    u = as_matrix(u, stack=True)
    dev = _over_sites(_hnorm_upto(dagger(u) @ u - identity_like(u), tol.unit), True)
    _require(dev <= tol.unit, NotUnitary, "||U*U - I|| = %.3e > %.3e", dev, tol.unit)
    return u


def _projection(p, tol: Tolerances, stack: bool = False, sites: bool = False) -> np.ndarray:
    """p made exactly Hermitian, once it is idempotent within tol.proj;
    with stack=True, each matrix of a (..., n, n) stack; with sites=True,
    each matrix of the site blocks p, checked on its sites (_over_sites)."""
    p = _hermitian(as_matrix(p, stack or sites), tol, sites)
    dev = _over_sites(_hnorm_upto(p @ p - p, tol.proj), sites)
    _require(dev <= tol.proj, NotProjection, "||P^2 - P|| = %.3e > %.3e", dev, tol.proj)
    return p


def _require_unit_interval(vals, tol: Tolerances) -> np.ndarray:
    """Ascending spectra, one per row over leading axes, once inside [0, 1]
    within tol.spec; an error reports the first offending row's extreme."""
    if vals.size == 0:
        return vals
    low, high = vals[..., 0], vals[..., -1]
    _require(-tol.spec <= low, NegativeSpectrum, "smallest eigenvalue %.3e < -%.3e", low, tol.spec)
    _require(high <= 1.0 + tol.spec, DomainError, "largest eigenvalue %.3e exceeds 1", high)
    return vals


def _effect(a, tol: Tolerances, stack: bool = False):
    """The validated effect a and its ascending spectrum (eigvalsh); with
    stack=True, of each matrix of a stack."""
    a = require_hermitian(a, tol, stack)
    return a, _require_unit_interval(np.linalg.eigvalsh(a), tol)


def _hermitian_pair(a, b, tol: Tolerances, stack: bool = False):
    """Both operands through require_hermitian; when b fails, the spectrum
    of a is checked first, so a's effect errors come before b's."""
    a = require_hermitian(a, tol, stack)
    try:
        b = require_hermitian(b, tol, stack)
    except AbscompatError:
        _require_unit_interval(np.linalg.eigvalsh(a), tol)
        raise
    return a, b


def _effects(a, b, tol: Tolerances):
    """The spectra (va, vb) of Hermitian a and b, or stacks of them, from
    one eigvalsh of the stack [a, b], once both lie in [0, 1]; errors
    come in the order a's spectrum, b's, the shapes."""
    if a.shape != b.shape:
        _require_unit_interval(np.linalg.eigvalsh(a), tol)
        _require_unit_interval(np.linalg.eigvalsh(b), tol)
        raise DimensionMismatch("effects of shapes %r and %r" % (a.shape, b.shape))
    va, vb = np.linalg.eigvalsh(np.stack([a, b]))
    _require_unit_interval(va, tol)
    _require_unit_interval(vb, tol)
    return va, vb


def _compose(vals, vecs) -> np.ndarray:
    """V diag(vals) V*, Hermitian for real vals, over leading axes."""
    return hermitize((vecs * vals[..., None, :]) @ dagger(vecs))


def _span(v) -> np.ndarray:
    """The orthogonal projection onto the span of the orthonormal columns
    of v."""
    return hermitize(v @ dagger(v))


def _levels(vals, tol: Tolerances):
    """Masks of the values (eigenvalues, singular values, entry moduli) at
    1 and at 0, within tol.spec; as tol.spec < 0.5, no value is at both."""
    return vals >= 1.0 - tol.spec, vals <= tol.spec


@dataclass(frozen=True)
class StrictnessReport:
    strict: bool
    support_rank: int
    null_rank: int
    spectrum_min: float
    spectrum_max: float

    def __bool__(self) -> bool:
        return self.strict


def _strict_rows(vals, tol: Tolerances, margin=0.0):
    """Whether each row over leading axes, a spectrum or entry moduli, has
    no value whose absolute value is at 1 or at 0: is_strict's decision,
    per row; with a margin, whether every value clears the cut by it."""
    # the _levels cut, as comparisons that a NaN fails
    vals = np.abs(vals)
    return np.all((tol.spec + margin < vals) & (vals < 1.0 - tol.spec - margin), axis=-1)


def _require_strict(va, vb, tol: Tolerances) -> None:
    """Strictness of two validated effects, or stacks of them, read off
    their spectra; the strict constructions need at least one dimension."""
    if va.size == 0:
        raise EmptyInput("strictness needs nonempty effects")
    for vals, which in ((va, "first"), (vb, "second")):
        _require(_strict_rows(vals, tol), NotStrict, "%s effect is not strict", which)


def is_strict(x, tol: Tolerances = DEFAULT_TOL) -> StrictnessReport:
    """Spectrum of |x| inside (0, 1), both endpoints excluded.

    The spectrum of |x| is the set of singular values of x.  The report
    carries the ranks of the offending eigenspaces at 1 (support) and 0
    (null).
    """
    vals = np.linalg.svd(as_matrix(x), compute_uv=False)
    if vals.size == 0:
        return StrictnessReport(True, 0, 0, float("nan"), float("nan"))
    support, null = (int(np.count_nonzero(m)) for m in _levels(vals, tol))
    return StrictnessReport(support == 0 and null == 0, support, null,
                            float(vals.min()), float(vals.max()))


def jordan_product(a, b) -> np.ndarray:
    """(ab + ba) / 2, of one pair or of each pair of a stack."""
    a, b = as_matrix(a, stack=True), as_matrix(b, stack=True)
    if a.shape != b.shape:
        raise DimensionMismatch("jordan product needs equal shapes, got %r and %r" % (a.shape, b.shape))
    return 0.5 * (a @ b + b @ a)


def cluster_indices(vals, gap: float):
    """Group ascending values into clusters split at gaps larger than gap."""
    vals = np.asarray(vals, dtype=float)
    if len(vals) == 0:
        return []
    cuts = np.nonzero(np.diff(vals) > gap)[0]
    return [np.arange(a, b) for a, b in zip(np.r_[0, cuts + 1], np.r_[cuts + 1, len(vals)])]

