"""Hermitian building blocks: validation, norms, |x|, the support and
null projections of an effect, strictness tests.

All inputs are plain complex numpy arrays; all functions are pure.  An
"effect" is a Hermitian matrix with spectrum in [0, 1]; an effect is
"strict" when its spectrum also avoids 0 and 1.

Stacks.  The spectral core works over leading axes: ``op_norm``,
``_hnorm``, ``_effects``, ``_compose`` and ``_require_unit_interval``
treat each matrix of a ``(..., n, n)`` stack on its own, and a 2-D input
is a batch of one, not a second path: norms are a float for one matrix
and an array for a stack.  A stacked factorization gives each matrix the
bits it gets alone.  Stacks pay where a numpy.linalg call's ~10 us
overhead is most of its cost, at small n; at n ~ 100 copying matrices
into a stack costs more than the call it saves, and numpy's stacked
matmul is about twice as slow as the same products made one by one.  So
_factor_each stacks factorizations up to _STACK_N, and products are
stacked only for small matrices.  The compatibility check and the
dimension-2 entry points take stacks too; _first_failing makes a failing
stack raise what its first failing element raises alone.  Raw input is
validated once, at an entry point, by as_matrix, require_hermitian,
_hermitian_pair, _effect or _projection, whose stack=True admits a
stack; the private cores take the Hermitian arrays they return.

One strictness cut: _levels puts a value at 1 from 1 - tol.spec up and
at 0 up to tol.spec in every such decision of the package, for kernels
and eigenspaces at 1, strict spectra, strict unitaries and projections,
a canonical form's x0 and the gates of dilate_commuting_pair.
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


def _vector(x, dtype, label: str) -> np.ndarray:
    """x flattened to a numeric vector of dtype."""
    try:
        return np.asarray(x, dtype=dtype).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise DomainError("%s must be numeric: %s" % (label, exc)) from exc


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


def _fnorm(h):
    """Frobenius norm over the last two axes: the l2 norm of all singular
    values, so never below the operator norm, their largest.  A float for
    one matrix, else an array; vecdot reduces with the BLAS dot that
    np.vdot uses, so each norm has the bits np.vdot gives it."""
    flat = h.reshape(h.shape[:-2] + (-1,))
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


def _hnorm_within(h, bound: float):
    """Whether ||h|| <= bound for a Hermitian n x n h, or for each of a
    stack of them.

    ||h||_F / sqrt(n) <= ||h|| <= ||h||_F, as h has at most n eigenvalues,
    so a Frobenius norm within the bound settles the test one way and one
    above sqrt(n) times the bound, less a rounding allowance of
    _ROUNDING * n, the other way; only a Frobenius norm between the two
    takes the exact _hnorm(h).
    """
    n = h.shape[-1]
    frob = _fnorm(h)
    within = frob <= bound
    undecided = np.logical_not(within | (frob > bound * np.sqrt(n) * (1.0 + _ROUNDING * n)))
    if np.any(undecided):
        within = within | (undecided & (_hnorm(h) <= bound))
    return within


def _first(values, bad) -> float:
    """The first of values where bad holds."""
    return float(np.extract(bad, values)[0])


def _first_failing(fn, cores, *args, alone=None):
    """fn(*args), where args[k] stacks elements of cores[k] axes over the
    leading axes of args[0], and an arg of only cores[k] axes belongs to
    every element.  When fn raises, each element goes alone, in order,
    to alone (fn by default), so the error raised is the one the first
    failing element raises by itself."""
    try:
        return fn(*args)
    except AbscompatError:
        for element in _elements(cores, args):
            (alone or fn)(*element)
        raise


def _elements(cores, args) -> list:
    """The elements of args in order, none when the args do not split over
    one leading shape; a list that does not stack splits into its items."""
    try:
        first = np.asarray(args[0])
    except ValueError:
        if not isinstance(args[0], list):
            return []
        first, lead = args[0], (len(args[0]),)
    else:
        lead = first.shape[:max(first.ndim - cores[0], 0)]
    if not lead:
        return []
    columns = [first]
    for x, core in zip(args[1:], cores[1:]):
        try:
            x = np.asarray(x)
        except ValueError:
            return []
        if x.ndim == core:
            x = None
        elif x.shape[:x.ndim - core] != lead:
            return []
        columns.append(x)
    return [tuple(whole if x is None else x[i[0]] if isinstance(x, list) else x[i]
                  for x, whole in zip(columns, args))
            for i in np.ndindex(*lead)]


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
    return _projection(p, tol)


def _projection(p, tol: Tolerances, stack: bool = False) -> np.ndarray:
    """p made exactly Hermitian, once it is idempotent within tol.proj;
    with stack=True, each matrix of a (..., n, n) stack."""
    p = require_hermitian(p, tol, stack)
    dev = _hnorm_upto(p @ p - p, tol.proj)
    bad = dev > tol.proj
    if np.any(bad):
        raise NotProjection("||P^2 - P|| = %.3e > %.3e" % (_first(dev, bad), tol.proj))
    return p


def _require_unit_interval(vals, tol: Tolerances) -> np.ndarray:
    """Ascending spectra, one per row over leading axes, once inside [0, 1]
    within tol.spec; an error reports the extreme eigenvalue of them all."""
    if vals.size == 0:
        return vals
    low, high = vals[..., 0], vals[..., -1]
    if vals.ndim > 1:
        low, high = low.min(), high.max()
    if low < -tol.spec:
        raise NegativeSpectrum("smallest eigenvalue %.3e < -%.3e" % (low, tol.spec))
    if high > 1.0 + tol.spec:
        raise DomainError("largest eigenvalue %.3e exceeds 1" % high)
    return vals


def _effect(a, tol: Tolerances, stack: bool = False):
    """The validated effect a and its ascending spectrum (eigvalsh); with
    stack=True, of each matrix of a stack."""
    a = require_hermitian(a, tol, stack)
    return a, _require_unit_interval(np.linalg.eigvalsh(a), tol)


def require_effect(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Check 0 <= a <= 1 on the spectrum (within tol.spec)."""
    return _effect(a, tol)[0]


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


def _factor_each(fn, *mats) -> list:
    """fn, a numpy.linalg function, of each of the same-shape mats: one
    call on their stack up to _STACK_N, one call each above it.  Either
    way each matrix gets the bits it gets alone."""
    if mats[0].shape[-1] > _STACK_N:
        return [fn(x) for x in mats]
    out = fn(np.array(mats))
    return list(zip(*out)) if isinstance(out, tuple) else list(out)


def _effects(a, b, tol: Tolerances):
    """The spectra (va, vb) of Hermitian a and b, or stacks of them, from
    one eigvalsh of the stack [a, b] (_factor_each), once both lie in
    [0, 1]; errors come in the order a's spectrum, b's, the shapes."""
    if a.shape != b.shape:
        _require_unit_interval(np.linalg.eigvalsh(a), tol)
        _require_unit_interval(np.linalg.eigvalsh(b), tol)
        raise DimensionMismatch("effects of shapes %r and %r" % (a.shape, b.shape))
    va, vb = _factor_each(np.linalg.eigvalsh, a, b)
    _require_unit_interval(va, tol)
    _require_unit_interval(vb, tol)
    return va, vb


def _compose(vals, vecs) -> np.ndarray:
    """V diag(vals) V*, Hermitian for real vals, over leading axes."""
    return hermitize((vecs * vals[..., None, :]) @ dagger(vecs))


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


def _span(v) -> np.ndarray:
    """The orthogonal projection onto the span of the orthonormal columns
    of v."""
    return hermitize(v @ dagger(v))


def _levels(vals, tol: Tolerances, margin=0.0):
    """Masks of the values (eigenvalues, singular values, entry moduli) at
    1 and at 0, within tol.spec; as tol.spec < 0.5, no value is at both.
    A margin widens both levels, for a certificate that a value clears the
    cut by it."""
    return vals >= 1.0 - tol.spec - margin, vals <= tol.spec + margin


def _level_span(a, tol: Tolerances, level: int) -> np.ndarray:
    """The span of the eigenvectors of the effect a in _levels(...)[level],
    from one eigh whose eigenvalues validate a with the errors of _effect."""
    vals, vecs = np.linalg.eigh(require_hermitian(a, tol))
    return _span(vecs[:, _levels(_require_unit_interval(vals, tol), tol)[level]])


def support_projection(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Largest projection below the effect a: its eigenvalue-1 eigenspace."""
    return _level_span(a, tol, 0)


def null_projection(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Largest projection annihilating the effect a: its kernel."""
    return _level_span(a, tol, 1)


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
    one, zero = _levels(np.abs(vals), tol, margin)
    return ~np.any(one | zero, axis=-1)


def _require_strict(va, vb, tol: Tolerances) -> None:
    """Strictness of two validated effects, or stacks of them, read off
    their spectra; the strict constructions need at least one dimension."""
    if va.size == 0:
        raise EmptyInput("strictness needs nonempty effects")
    for vals, which in ((va, "first"), (vb, "second")):
        if not np.all(_strict_rows(vals, tol)):
            raise NotStrict("%s effect is not strict" % which)


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
    a = as_matrix(a)
    b = as_matrix(b)
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

